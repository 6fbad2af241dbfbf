//! Backing storage for CSR arrays: owned vectors or typed views into a
//! shared memory-mapped GFX1 file.
//!
//! The mapped variant exists so segments of graphs larger than RAM can
//! page in on demand: `Csr::open_mapped` validates the whole file layout
//! once, then hands out [`Buf`] slices that borrow the mapping instead of
//! copying it. The mapping is `PROT_READ`/`MAP_PRIVATE`, so the kernel
//! evicts clean pages under memory pressure and re-faults them from disk —
//! peak RSS stays bounded by the working set (the active segments), not
//! the file size.
//!
//! Safety argument (see DESIGN.md §12): a `Buf::Mapped` slice is
//! constructed only by [`Buf::mapped_slice`], which checks that the byte
//! range lies inside the mapping and that the base address satisfies the
//! element alignment; the `Arc<MappedRegion>` held inside the variant
//! keeps the mapping alive for as long as any slice exists, and the
//! region is unmapped exactly once on the last drop. The one hazard that
//! cannot be checked at open time is the file *shrinking* after the map
//! is established (a fault on a now-missing page raises `SIGBUS` on every
//! mmap consumer on POSIX); GFX1 files are written whole and never
//! truncated in place, and the caveat is documented on `open_mapped`.

use std::fmt;
use std::ops::Deref;

#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
pub(crate) use mapped::MappedRegion;

#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
mod mapped {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MADV_RANDOM: i32 = 1;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
        fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
    }

    /// A read-only private mapping of an entire file.
    pub struct MappedRegion {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // SAFETY: `ptr` is the only field that is not `Send` by itself. It is
    // the base of a `PROT_READ`/`MAP_PRIVATE` mapping this value owns from
    // `map_file` until `Drop`: no thread can write through it, and
    // `munmap` may run on whichever thread drops the value last.
    unsafe impl Send for MappedRegion {}
    // SAFETY: every method takes `&self` and only reads `ptr`/`len` or the
    // mapped bytes, which nothing writes while the mapping lives — sharing
    // a `&MappedRegion` is sharing a read-only slice.
    unsafe impl Sync for MappedRegion {}

    impl MappedRegion {
        /// Maps `file` (which must be non-empty) read-only.
        pub fn map_file(file: &File) -> io::Result<MappedRegion> {
            let len = file.metadata()?.len();
            if len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "cannot map an empty file",
                ));
            }
            let len = len as usize;
            // SAFETY: a null hint lets the kernel choose the address, so no
            // existing mapping is replaced; `len` is non-zero and the fd is
            // open for the call (`file` is borrowed). `PROT_READ` with
            // `MAP_PRIVATE` gives pages nothing in this process can write
            // and writes to the file by others need not reach. The result
            // is checked against `MAP_FAILED` before it is used.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            // Frontier-driven traversal touches segments out of order;
            // advisory only, failure is harmless.
            // SAFETY: `ptr`/`len` are exactly the mapping `mmap` just
            // returned, and `MADV_RANDOM` changes read-ahead, not contents.
            unsafe {
                madvise(ptr, len, MADV_RANDOM);
            }
            Ok(MappedRegion { ptr, len })
        }

        /// The mapped bytes.
        #[inline]
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is the non-null, page-aligned base of a mapping
            // of `len` bytes (the length passed to `mmap`, below
            // `isize::MAX` on a 64-bit target) that stays mapped and
            // unwritten until `Drop`; the slice borrows `self`, so it
            // cannot outlive the mapping. The one thing not ruled out is
            // the file shrinking under the mapping (module docs, DESIGN.md
            // §12): a read past the new end is a `SIGBUS`, not a wild read.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }

        /// Base address of the mapping (always page-aligned).
        #[inline]
        pub fn base(&self) -> *const u8 {
            self.ptr as *const u8
        }

        /// Length of the mapping in bytes.
        #[inline]
        pub fn len(&self) -> usize {
            self.len
        }
    }

    impl Drop for MappedRegion {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are the mapping `map_file` created and
            // nothing else unmaps it; `drop` runs once, and every slice
            // into the mapping holds an `Arc` of this value, so none
            // outlives it.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }

    impl std::fmt::Debug for MappedRegion {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("MappedRegion")
                .field("len", &self.len)
                .finish()
        }
    }
}

/// A CSR array: either an owned vector or a typed window into a shared
/// file mapping. Dereferences to `&[T]` either way, so the rest of the
/// crate is storage-agnostic; mutation paths rebuild owned vectors and
/// reassign whole fields, which naturally detaches from the mapping.
pub(crate) enum Buf<T: 'static> {
    Owned(Vec<T>),
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    Mapped {
        /// Keeps the mapping alive for as long as this slice exists.
        region: std::sync::Arc<MappedRegion>,
        ptr: *const T,
        len: usize,
    },
}

// SAFETY: the Mapped variant's pointer targets immutable mapped bytes
// owned (transitively, via the Arc) by the variant itself; sharing it
// across threads is sharing a read-only slice.
unsafe impl<T: Send + Sync + 'static> Send for Buf<T> {}
unsafe impl<T: Send + Sync + 'static> Sync for Buf<T> {}

impl<T> Deref for Buf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Buf::Owned(v) => v,
            #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
            // SAFETY: `mapped_slice` checked range and alignment against
            // the region, and `region` (held by this variant) keeps the
            // mapping alive.
            Buf::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl<T> From<Vec<T>> for Buf<T> {
    fn from(v: Vec<T>) -> Self {
        Buf::Owned(v)
    }
}

impl<T> Default for Buf<T> {
    fn default() -> Self {
        Buf::Owned(Vec::new())
    }
}

impl<T: Clone> Clone for Buf<T> {
    fn clone(&self) -> Self {
        match self {
            Buf::Owned(v) => Buf::Owned(v.clone()),
            #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
            Buf::Mapped { region, ptr, len } => Buf::Mapped {
                region: region.clone(),
                ptr: *ptr,
                len: *len,
            },
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Buf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T> Buf<T> {
    /// True when the backing storage is a file mapping.
    pub fn is_mapped(&self) -> bool {
        match self {
            Buf::Owned(_) => false,
            #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
            Buf::Mapped { .. } => true,
        }
    }

    /// A typed window of `len` elements starting `byte_offset` bytes into
    /// the mapping. Fails (by message; callers wrap into a typed error)
    /// when the range leaves the mapping or the base is misaligned for
    /// `T` — the two preconditions the `Deref` impl relies on.
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    pub fn mapped_slice(
        region: &std::sync::Arc<MappedRegion>,
        byte_offset: usize,
        len: usize,
    ) -> Result<Buf<T>, &'static str> {
        let size = std::mem::size_of::<T>();
        let need = len
            .checked_mul(size)
            .and_then(|b| b.checked_add(byte_offset))
            .ok_or("mapped slice length overflows")?;
        if need > region.len() {
            return Err("mapped slice extends past end of file");
        }
        // SAFETY: `byte_offset <= need <= region.len()` was checked just
        // above, so the offset stays inside (or one past the end of) the
        // mapping `region.base()` points into.
        let ptr = unsafe { region.base().add(byte_offset) };
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err("mapped slice is misaligned");
        }
        Ok(Buf::Mapped {
            region: region.clone(),
            ptr: ptr as *const T,
            len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_buf_derefs_and_clones() {
        let b: Buf<u32> = vec![1, 2, 3].into();
        assert_eq!(&*b, &[1, 2, 3]);
        assert!(!b.is_mapped());
        let c = b.clone();
        assert_eq!(&*c, &[1, 2, 3]);
        let d: Buf<u32> = Buf::default();
        assert!(d.is_empty());
    }

    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    #[test]
    fn mapped_slice_checks_bounds_and_alignment() {
        use std::io::Write;
        let dir = std::env::temp_dir().join("graffix-storage-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.bin");
        let mut f = std::fs::File::create(&path).unwrap();
        let words: Vec<u64> = (0..8).collect();
        for w in &words {
            f.write_all(&w.to_le_bytes()).unwrap();
        }
        f.flush().unwrap();
        drop(f);
        let region = std::sync::Arc::new(
            MappedRegion::map_file(&std::fs::File::open(&path).unwrap()).unwrap(),
        );
        let b: Buf<u64> = Buf::mapped_slice(&region, 0, 8).unwrap();
        assert!(b.is_mapped());
        assert_eq!(&*b, &words[..]);
        // One element too many.
        assert!(Buf::<u64>::mapped_slice(&region, 8, 8).is_err());
        // Misaligned base for u64.
        assert!(Buf::<u64>::mapped_slice(&region, 4, 1).is_err());
        // The slice keeps the region alive after the Arc is dropped.
        drop(region);
        assert_eq!(b[7], 7);
        std::fs::remove_file(&path).ok();
    }
}
