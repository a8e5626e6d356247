//! Stand-in for the one corner of `crossbeam` the thread backend uses:
//! an unbounded MPSC channel. `std::sync::mpsc` has had the same
//! `send` / `try_recv` / `recv_timeout` surface and a `Sync` sender
//! since Rust 1.72.

pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvTimeoutError, SendError, Sender, TryRecvError};

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}
