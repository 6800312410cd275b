//! The in-memory file cache server of the §5.4 web stack ("an in-memory
//! file cache server which is used to cache the HTML files in both
//! modes").

use simos::World;
use std::collections::HashMap;

/// In-memory file cache keyed by path.
#[derive(Debug, Clone, Default)]
pub struct FileCache {
    files: HashMap<String, Vec<u8>>,
    /// Cache hits served.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
}

impl FileCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Populate a file (host-side setup, uncharged).
    pub fn put(&mut self, path: &str, contents: Vec<u8>) {
        self.files.insert(path.to_string(), contents);
    }

    /// Serve a file request: one pass to move the file into the reply
    /// message (or relay segment), plus a small lookup cost.
    pub fn get(&mut self, w: &mut World, path: &str) -> Option<Vec<u8>> {
        w.compute(120); // hash lookup
        match self.files.get(path) {
            Some(data) => {
                w.data_pass(data.len() as u64, 10);
                self.hits += 1;
                Some(data.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{CycleLedger, InvokeOpts, IpcSystem};

    struct Free;
    impl IpcSystem for Free {
        fn name(&self) -> String {
            "free".into()
        }
        fn oneway_into(&mut self, _len: usize, _opts: &InvokeOpts, _out: &mut CycleLedger) -> u64 {
            0
        }
    }

    #[test]
    fn hit_and_miss_paths() {
        let mut w = simos::World::new(Box::new(Free));
        let mut c = FileCache::new();
        c.put("/index.html", b"<html>hi</html>".to_vec());
        assert_eq!(
            c.get(&mut w, "/index.html").as_deref(),
            Some(b"<html>hi</html>".as_ref())
        );
        assert_eq!(c.get(&mut w, "/nope"), None);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn serving_charges_by_size() {
        let mut w = simos::World::new(Box::new(Free));
        let mut c = FileCache::new();
        c.put("/small", vec![0; 100]);
        c.put("/big", vec![0; 100_000]);
        c.get(&mut w, "/small");
        let small = w.cycles;
        c.get(&mut w, "/big");
        assert!(w.cycles - small > 10 * small);
    }
}
