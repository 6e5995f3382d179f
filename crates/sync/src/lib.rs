//! # scperf-sync — no-poison locking primitives
//!
//! A thin wrapper over [`std::sync`] exposing the subset of the
//! `parking_lot` API the workspace uses: a [`Mutex`] whose `lock()`
//! returns the guard directly (no `Result`), a [`RwLock`] with the same
//! no-poison contract for read-mostly shared state, and a [`Condvar`]
//! that waits on a `&mut MutexGuard`. Lock poisoning is ignored: a panicking
//! holder does not prevent others from making progress, which the
//! simulation kernel relies on when a process panics mid-simulation.
//!
//! The workspace builds in fully offline environments, so these
//! primitives are implemented in-tree rather than pulled from a
//! registry.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod pool;

pub use pool::WorkerPool;

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// A mutual-exclusion primitive. `lock()` never fails: poisoning from a
/// panicked holder is swallowed and the data is handed out as-is.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the protected value (requires
    /// exclusive access to the mutex itself, so no locking is needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard returned by [`Mutex::lock`]. The protected data is
/// reachable through [`Deref`]/[`DerefMut`].
///
/// The guard internally holds an `Option` so that [`Condvar::wait`] can
/// temporarily relinquish the underlying std guard; outside of a wait
/// the option is always `Some`.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard active")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard active")
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A readers-writer lock. Like [`Mutex`], lock acquisition never fails:
/// poisoning from a panicked holder is swallowed and the data is handed
/// out as-is. Intended for read-mostly shared state (e.g. memoization
/// caches shared across worker threads).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempts shared read access without blocking.
    pub fn try_read(&self) -> Option<std::sync::RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts exclusive write access without blocking.
    pub fn try_write(&self) -> Option<std::sync::RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the protected value (requires
    /// exclusive access to the lock itself, so no locking is needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            None => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

/// A condition variable usable with [`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's mutex and blocks until notified,
    /// reacquiring the mutex before returning. Spurious wakeups are
    /// possible, as with [`std::sync::Condvar`].
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard active");
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(g);
    }

    /// Wakes one thread blocked on this condition variable.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all threads blocked on this condition variable.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn poisoned_lock_still_hands_out_data() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wait_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            *ready = false;
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
        assert!(!*pair.0.lock());
    }

    #[test]
    fn rwlock_readers_share_writers_exclude() {
        let l = RwLock::new(10);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!((*r1, *r2), (10, 10));
            assert!(l.try_write().is_none());
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 11);
        assert_eq!(l.into_inner(), 11);
    }

    #[test]
    fn poisoned_rwlock_still_hands_out_data() {
        let l = Arc::new(RwLock::new(3));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        assert_eq!(*l.read(), 3);
        *l.write() += 1;
        assert_eq!(*l.read(), 4);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(1);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}
