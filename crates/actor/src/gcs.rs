//! Global Control Store analogue.
//!
//! Ray's GCS keeps actor metadata and lets restartable actors resume.
//! MegaScale-Data leans on it for Planner and Data Constructor recovery
//! (Sec 6.1: "Core coordinators leverage the Global Control Store for state
//! management and automatic restarts"). [`Gcs`] provides the two services
//! the reproduction needs: a name registry and a versioned state blackboard
//! for checkpoints.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

/// A versioned checkpoint blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotonic version (e.g. training step or plan epoch).
    pub version: u64,
    /// Opaque serialized state.
    pub data: Vec<u8>,
}

/// One recorded component failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Name of the failing component (e.g. `loader/3`).
    pub component: String,
    /// What went wrong.
    pub detail: String,
}

#[derive(Default)]
struct Inner {
    registry: HashMap<String, String>,
    state: HashMap<String, Checkpoint>,
    faults: Vec<FaultRecord>,
}

/// Shared, thread-safe control store.
#[derive(Clone, Default)]
pub struct Gcs {
    inner: Arc<RwLock<Inner>>,
}

impl Gcs {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a named component with its descriptor (role, address).
    pub fn register(&self, name: &str, descriptor: &str) {
        self.inner
            .write()
            .registry
            .insert(name.to_string(), descriptor.to_string());
    }

    /// Removes a registration.
    pub fn deregister(&self, name: &str) {
        self.inner.write().registry.remove(name);
    }

    /// Looks up a component descriptor.
    pub fn lookup(&self, name: &str) -> Option<String> {
        self.inner.read().registry.get(name).cloned()
    }

    /// Lists registered names with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .read()
            .registry
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Stores a checkpoint if its version is newer than the stored one.
    /// Returns `true` if the store accepted it. An existing entry is
    /// replaced in place: only a key's first put allocates the key.
    pub fn put_state(&self, key: &str, version: u64, data: Vec<u8>) -> bool {
        self.put_state_with(key, version, move |buf| *buf = data)
    }

    /// [`Gcs::put_state`], writing the blob in place: if the store
    /// accepts `version`, `encode` runs on the key's stored buffer,
    /// cleared but with its capacity kept (a fresh one for a new key).
    /// Re-putting a blob no larger than the stored one makes no
    /// allocator call. A refused put leaves the entry as it was and does
    /// not run `encode`.
    pub fn put_state_with(
        &self,
        key: &str,
        version: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        let mut inner = self.inner.write();
        match inner.state.get_mut(key) {
            Some(existing) if existing.version >= version => false,
            Some(existing) => {
                existing.version = version;
                existing.data.clear();
                encode(&mut existing.data);
                true
            }
            None => {
                let mut data = Vec::new();
                encode(&mut data);
                inner
                    .state
                    .insert(key.to_string(), Checkpoint { version, data });
                true
            }
        }
    }

    /// Fetches the latest checkpoint for a key.
    pub fn get_state(&self, key: &str) -> Option<Checkpoint> {
        self.inner.read().state.get(key).cloned()
    }

    /// Latest checkpoint version for a key (0 if none).
    pub fn state_version(&self, key: &str) -> u64 {
        self.inner
            .read()
            .state
            .get(key)
            .map(|c| c.version)
            .unwrap_or(0)
    }

    /// Drops the checkpoint stored under `key` (log pruning). Returns
    /// `true` if something was removed.
    pub fn remove_state(&self, key: &str) -> bool {
        self.inner.write().state.remove(key).is_some()
    }

    /// Appends a component failure to the shared fault log (restart paths
    /// report recoverable corruption here instead of dying).
    pub fn log_fault(&self, component: impl Into<String>, detail: impl Into<String>) {
        self.inner.write().faults.push(FaultRecord {
            component: component.into(),
            detail: detail.into(),
        });
    }

    /// Fault records for components whose name starts with `prefix`
    /// (empty prefix returns the whole log), in insertion order.
    pub fn fault_log(&self, prefix: &str) -> Vec<FaultRecord> {
        self.inner
            .read()
            .faults
            .iter()
            .filter(|r| r.component.starts_with(prefix))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip() {
        let gcs = Gcs::new();
        gcs.register("loader/0", "source=coyo,part=0");
        gcs.register("loader/1", "source=coyo,part=1");
        gcs.register("planner", "central");
        assert_eq!(
            gcs.lookup("loader/0").as_deref(),
            Some("source=coyo,part=0")
        );
        assert_eq!(gcs.list("loader/"), vec!["loader/0", "loader/1"]);
        gcs.deregister("loader/0");
        assert_eq!(gcs.lookup("loader/0"), None);
    }

    #[test]
    fn checkpoints_are_version_gated() {
        let gcs = Gcs::new();
        assert!(gcs.put_state("planner", 5, vec![1]));
        // Stale write rejected.
        assert!(!gcs.put_state("planner", 4, vec![2]));
        assert!(!gcs.put_state("planner", 5, vec![3]));
        assert!(gcs.put_state("planner", 6, vec![4]));
        let cp = gcs.get_state("planner").unwrap();
        assert_eq!(cp.version, 6);
        assert_eq!(cp.data, vec![4]);
        assert_eq!(gcs.state_version("planner"), 6);
        assert_eq!(gcs.state_version("unknown"), 0);
    }

    #[test]
    fn put_state_keeps_the_version_rule_per_key() {
        let gcs = Gcs::new();
        // New keys insert, whatever their version.
        assert!(gcs.put_state("loader/0", 0, vec![0]));
        assert!(gcs.put_state("loader/1", 7, vec![7]));
        // Equal and older versions are refused and leave the entry alone.
        assert!(!gcs.put_state("loader/0", 0, vec![9]));
        assert!(!gcs.put_state("loader/1", 7, vec![9]));
        assert!(!gcs.put_state("loader/1", 3, vec![9]));
        // Newer versions replace the stored entry, version and bytes both.
        assert!(gcs.put_state("loader/0", 1, vec![1]));
        assert!(gcs.put_state("loader/1", 8, vec![8]));
        let get = |key: &str| gcs.get_state(key).map(|cp| (cp.version, cp.data));
        assert_eq!(get("loader/0"), Some((1, vec![1])));
        assert_eq!(get("loader/1"), Some((8, vec![8])));
        // A removed key is new again.
        assert!(gcs.remove_state("loader/1"));
        assert!(gcs.put_state("loader/1", 2, vec![2]));
        assert_eq!(get("loader/1"), Some((2, vec![2])));
    }

    #[test]
    fn put_state_with_keeps_the_version_rule_and_writes_in_place() {
        let gcs = Gcs::new();
        let write = |bytes: &'static [u8]| move |buf: &mut Vec<u8>| buf.extend_from_slice(bytes);
        // A new key is inserted, as `put_state` inserts it.
        assert!(gcs.put_state_with("loader/0", 3, write(b"abcd")));
        let get = |key: &str| gcs.get_state(key).map(|cp| (cp.version, cp.data));
        assert_eq!(get("loader/0"), Some((3, b"abcd".to_vec())));
        // Equal and older versions are refused, never encode, and leave
        // the entry as it was.
        let refused = |buf: &mut Vec<u8>| panic!("a refused put encoded {buf:?}");
        assert!(!gcs.put_state_with("loader/0", 3, refused));
        assert!(!gcs.put_state_with("loader/0", 2, refused));
        assert_eq!(get("loader/0"), Some((3, b"abcd".to_vec())));
        // A newer version replaces the bytes: the buffer is cleared first.
        assert!(gcs.put_state_with("loader/0", 4, write(b"xy")));
        assert_eq!(get("loader/0"), Some((4, b"xy".to_vec())));
        assert!(gcs.put_state("loader/0", 5, vec![5]));
        assert!(!gcs.put_state_with("loader/0", 5, refused));
        assert_eq!(gcs.state_version("loader/0"), 5);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let gcs = Gcs::new();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let gcs = gcs.clone();
            handles.push(std::thread::spawn(move || {
                for v in 0..100u64 {
                    gcs.put_state("shared", t * 100 + v, vec![t as u8]);
                    gcs.register(&format!("actor/{t}"), "x");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Highest version wins.
        assert_eq!(gcs.state_version("shared"), 799);
        assert_eq!(gcs.list("actor/").len(), 8);
    }
}
