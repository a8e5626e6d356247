//! Stand-in for `serde_derive`: the repository derives `Serialize` and
//! `Deserialize` on its types but every codec (wire, journal, obs) is
//! hand-written, so the derives only have to compile. They accept the
//! `#[serde(...)]` helper attribute and expand to nothing.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
