//! The vendored epoll shim — the reactor's **only** unsafe confinement.
//!
//! `cxm-server` deliberately vendors no async runtime and no `libc` crate;
//! the three raw syscalls the readiness loop needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`) are declared here as `extern "C"` symbols,
//! which resolve against the libc the Rust standard library already links
//! on Linux. Errno is read through `io::Error::last_os_error()`, so no
//! further FFI is required.
//!
//! The workspace denies `unsafe_code`; this file carries the one scoped
//! exception (see `docs/INVARIANTS.md`). The boundary is deliberate: every
//! `unsafe` block in the serving layer lives in this module, behind the
//! safe [`Poller`] API, and the module's unit tests run under the scheduled
//! ThreadSanitizer CI job. Everything above this file — connection state
//! machines, admission, dispatch — is ordinary safe Rust.
//!
//! epoll is the only poller: the server builds for Linux targets alone.
#![allow(unsafe_code)]

#[cfg(not(target_os = "linux"))]
compile_error!("cxm-server's connection reactor is built on epoll and supports Linux only");

use std::io;
use std::os::fd::RawFd;

/// What a registration wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the descriptor is readable.
    pub read: bool,
    /// Wake when the descriptor is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest { read: true, write: false };
    /// No interest — stay registered, report nothing (the parked state of a
    /// connection whose request is at the workers).
    pub const NONE: Interest = Interest { read: false, write: false };
}

/// One readiness report.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The `u64` token the descriptor was registered with.
    pub token: u64,
    /// Readable (or listener has a pending accept).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup — the owner should close.
    pub closed: bool,
}

// Constants from <sys/epoll.h>; stable kernel ABI.
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x8_0000;

/// `struct epoll_event`. The kernel ABI packs it on x86-64; other
/// architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

// These symbols come from the libc std already links — declarations
// only, no new dependency.
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

fn interest_bits(interest: Interest) -> u32 {
    let mut bits = 0;
    if interest.read {
        bits |= EPOLLIN;
    }
    if interest.write {
        bits |= EPOLLOUT;
    }
    bits
}

/// The Linux poller: one epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: i32,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes a flag word and returns a new fd
        // or -1; no pointers cross the boundary.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let mut event = event;
        let ptr = match event.as_mut() {
            Some(e) => e as *mut EpollEvent,
            None => std::ptr::null_mut(),
        };
        // SAFETY: `ptr` is null (allowed for EPOLL_CTL_DEL since Linux
        // 2.6.9) or points at a live stack-owned EpollEvent that the
        // kernel only reads during the call.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, ptr) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(EpollEvent { events: interest_bits(interest), data: token }),
        )
    }

    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(EpollEvent { events: interest_bits(interest), data: token }),
        )
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        let mut raw = [EpollEvent { events: 0, data: 0 }; 64];
        loop {
            // SAFETY: `raw` is a live, writable buffer of `raw.len()`
            // events; the kernel fills at most that many.
            let n =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                // A signal landing mid-wait is not an error; retry.
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            for ev in raw.iter().take(n as usize) {
                // Copy the fields out — references into a packed struct
                // are not allowed.
                let bits = ev.events;
                let token = ev.data;
                events.push(Event {
                    token,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            return Ok(());
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is the epoll fd this struct owns; closing it
        // once at drop cannot double-close.
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn readiness_follows_data_and_interest() {
        let poller = Poller::new().expect("poller");
        let (mut tx, mut rx) = pair();
        poller.add(rx.as_raw_fd(), 42, Interest::READ).expect("add");

        // Nothing written yet: a zero-timeout wait reports nothing.
        let mut events = Vec::new();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "{events:?}");

        tx.write_all(b"ping").expect("write");
        poller.wait(&mut events, 1000).expect("wait");
        let ev = events.iter().find(|e| e.token == 42).expect("readable event");
        assert!(ev.readable);
        let mut buf = [0u8; 8];
        let n = rx.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");

        // Write interest on an idle socket reports writable immediately.
        poller.modify(rx.as_raw_fd(), 42, Interest { read: true, write: true }).expect("modify");
        poller.wait(&mut events, 1000).expect("wait");
        assert!(events.iter().any(|e| e.token == 42 && e.writable), "{events:?}");

        // Parked interest reports nothing even with data pending.
        tx.write_all(b"more").expect("write");
        poller.modify(rx.as_raw_fd(), 42, Interest::NONE).expect("modify");
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.iter().all(|e| e.token != 42), "{events:?}");

        poller.delete(rx.as_raw_fd()).expect("delete");
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.iter().all(|e| e.token != 42), "deleted fds stay silent");
    }

    #[test]
    fn hangup_is_reported_as_closed() {
        let poller = Poller::new().expect("poller");
        let (tx, rx) = pair();
        poller.add(rx.as_raw_fd(), 7, Interest::READ).expect("add");
        drop(tx);
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).expect("wait");
        let ev = events.iter().find(|e| e.token == 7).expect("event after peer close");
        // A closed peer is readable (EOF) and flagged hung-up.
        assert!(ev.closed || ev.readable, "{ev:?}");
    }

    #[test]
    fn tokens_round_trip_the_full_u64_width() {
        let poller = Poller::new().expect("poller");
        let (mut tx, rx) = pair();
        let token = (u64::from(u32::MAX) << 32) | 12345;
        poller.add(rx.as_raw_fd(), token, Interest::READ).expect("add");
        tx.write_all(b"x").expect("write");
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).expect("wait");
        assert!(events.iter().any(|e| e.token == token), "{events:?}");
    }
}
