//! The model registry: a versioned, multi-model map keyed by artifact
//! content fingerprint, built for hot reload under live traffic.
//!
//! The BDC publishes new releases on a biweekly cadence, so a production
//! scorer retrains and republishes on the same rhythm — and must swap model
//! versions without dropping in-flight requests. The registry makes the
//! swap an atomic pointer exchange:
//!
//! * **Readers** ([`ModelRegistry::get`], [`ModelRegistry::default_model`])
//!   clone one [`Arc`] out of the current snapshot under a briefly-held
//!   read lock — a request that started scoring on v1 keeps its `Arc` until
//!   its response is written, no matter how many publishes happen meanwhile.
//! * **Writers** ([`ModelRegistry::publish`], [`ModelRegistry::retire`], …)
//!   serialise behind a `Mutex`, build the next immutable snapshot off to
//!   the side, and swap it in whole. Readers never observe a half-updated
//!   map, and an old model's memory is reclaimed exactly when the last
//!   in-flight request holding its `Arc` completes — v2 serves while v1
//!   drains.
//!
//! [`DirWatcher`] layers filesystem hot reload on top: point it at a
//! directory of `.rsm` artifacts and each [`DirWatcher::scan`] loads new or
//! changed files, publishes the newest as the default version, and retires
//! models whose files were deleted. The `redsus-score serve --watch-dir`
//! CLI polls it on an interval.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::SystemTime;

use obs::Counter;

use crate::batch::ScoreKernel;
use crate::ServedModel;

/// An immutable registry snapshot: the models and which one is default.
/// Swapped in whole, never mutated in place.
struct Snapshot {
    /// Fingerprint of the default model (the one `/score` without a
    /// `?model=` selector uses), when any model is loaded.
    default: Option<u64>,
    /// Models in publish order (oldest first). Small by construction — a
    /// serving process holds a handful of versions, not thousands — so
    /// lookup is a linear scan over Arcs.
    models: Vec<Arc<ServedModel>>,
}

impl Snapshot {
    fn empty() -> Self {
        Self {
            default: None,
            models: Vec::new(),
        }
    }

    fn find(&self, fingerprint: u64) -> Option<&Arc<ServedModel>> {
        self.models.iter().find(|m| m.fingerprint() == fingerprint)
    }
}

/// One registry entry as reported by `GET /models` and the CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Artifact content fingerprint (the registry key).
    pub fingerprint: u64,
    /// Trees in the forest.
    pub trees: usize,
    /// Width of the feature schema.
    pub features: usize,
    /// The kernel `score_block` runs on for this model.
    pub kernel: ScoreKernel,
    /// Whether this is the default version.
    pub is_default: bool,
}

/// Lifecycle counters a registry keeps over its whole life: always-on
/// `obs` atomics, so a metrics registry can
/// [adopt](obs::MetricsRegistry::adopt_counter) them and `/metrics` exposes
/// the same cores the registry itself increments.
#[derive(Debug, Clone)]
pub struct RegistryLifecycle {
    /// Models published (replacements included).
    pub publishes: Counter,
    /// Model versions retired.
    pub retires: Counter,
    /// Times the default version changed (a publish over a different
    /// default, or the fallback when the default is retired).
    pub default_swaps: Counter,
}

impl Default for RegistryLifecycle {
    fn default() -> Self {
        Self {
            publishes: Counter::active(),
            retires: Counter::active(),
            default_swaps: Counter::active(),
        }
    }
}

/// A versioned multi-model registry with atomic snapshot swaps.
///
/// See the [module docs](self) for the read/write protocol.
pub struct ModelRegistry {
    current: RwLock<Arc<Snapshot>>,
    /// Serialises mutations; the `RwLock` write lock is only held for the
    /// final pointer swap, so readers are never blocked behind a decode.
    writer: Mutex<()>,
    lifecycle: RegistryLifecycle,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// An empty registry (a `--watch-dir` server before its first scan).
    pub fn new() -> Self {
        Self {
            current: RwLock::new(Arc::new(Snapshot::empty())),
            writer: Mutex::new(()),
            lifecycle: RegistryLifecycle::default(),
        }
    }

    /// This registry's lifecycle counters (live handles; cheap to clone).
    pub fn lifecycle(&self) -> &RegistryLifecycle {
        &self.lifecycle
    }

    /// A registry holding one model, set as the default.
    pub fn with_model(model: ServedModel) -> Self {
        let registry = Self::new();
        registry.publish(model);
        registry
    }

    fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("registry lock poisoned"))
    }

    fn swap<F>(&self, build: F)
    where
        F: FnOnce(&Snapshot) -> Snapshot,
    {
        let _writer = self.writer.lock().expect("registry writer poisoned");
        let next = Arc::new(build(&self.snapshot()));
        *self.current.write().expect("registry lock poisoned") = next;
    }

    /// Insert (or replace) a model and make it the default version.
    /// Returns the fingerprint it is registered under.
    pub fn publish(&self, model: ServedModel) -> u64 {
        let fingerprint = model.fingerprint();
        let model = Arc::new(model);
        self.swap(|old| {
            if old.default != Some(fingerprint) {
                self.lifecycle.default_swaps.inc();
            }
            let mut models: Vec<Arc<ServedModel>> = old
                .models
                .iter()
                .filter(|m| m.fingerprint() != fingerprint)
                .cloned()
                .collect();
            models.push(Arc::clone(&model));
            Snapshot {
                default: Some(fingerprint),
                models,
            }
        });
        self.lifecycle.publishes.inc();
        fingerprint
    }

    /// Remove a model version. In-flight requests holding its `Arc` finish
    /// unharmed; the memory dies with the last of them. When the default is
    /// retired, the most recently published survivor becomes the default.
    /// Returns `false` when no model has that fingerprint.
    pub fn retire(&self, fingerprint: u64) -> bool {
        let mut found = false;
        self.swap(|old| {
            let models: Vec<Arc<ServedModel>> = old
                .models
                .iter()
                .filter(|m| {
                    let hit = m.fingerprint() == fingerprint;
                    found |= hit;
                    !hit
                })
                .cloned()
                .collect();
            let default = if old.default == Some(fingerprint) {
                self.lifecycle.default_swaps.inc();
                models.last().map(|m| m.fingerprint())
            } else {
                old.default
            };
            Snapshot { default, models }
        });
        if found {
            self.lifecycle.retires.inc();
        }
        found
    }

    /// Resolve a scoring request to a model: `None` selects the default,
    /// `Some(fingerprint)` an explicit version. The returned `Arc` pins the
    /// model for the caller's lifetime — publishes and retires that happen
    /// mid-request cannot pull it out from under the scorer.
    pub fn get(&self, fingerprint: Option<u64>) -> Option<Arc<ServedModel>> {
        let snapshot = self.snapshot();
        match fingerprint {
            Some(fp) => snapshot.find(fp).cloned(),
            None => snapshot.default.and_then(|fp| snapshot.find(fp).cloned()),
        }
    }

    /// The default model, if any.
    pub fn default_model(&self) -> Option<Arc<ServedModel>> {
        self.get(None)
    }

    /// The default model's fingerprint, if any.
    pub fn default_fingerprint(&self) -> Option<u64> {
        self.snapshot().default
    }

    /// Number of loaded model versions.
    pub fn len(&self) -> usize {
        self.snapshot().models.len()
    }

    /// True when no model is loaded.
    pub fn is_empty(&self) -> bool {
        self.snapshot().models.is_empty()
    }

    /// One [`ModelInfo`] per loaded version, in publish order.
    pub fn infos(&self) -> Vec<ModelInfo> {
        let snapshot = self.snapshot();
        snapshot
            .models
            .iter()
            .map(|m| ModelInfo {
                fingerprint: m.fingerprint(),
                trees: m.forest().n_trees(),
                features: m.forest().n_features(),
                kernel: m.kernel(),
                is_default: snapshot.default == Some(m.fingerprint()),
            })
            .collect()
    }
}

/// What one [`DirWatcher::scan`] did.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Artifacts loaded this scan: `(path, fingerprint)`.
    pub loaded: Vec<(PathBuf, u64)>,
    /// Fingerprints retired because their backing file disappeared.
    pub retired: Vec<u64>,
    /// Files that failed to load: `(path, error)`. A half-written artifact
    /// lands here and is retried when its `(mtime, len)` stamp changes.
    pub errors: Vec<(PathBuf, String)>,
}

impl ScanReport {
    /// True when the scan changed nothing.
    pub fn is_quiet(&self) -> bool {
        self.loaded.is_empty() && self.retired.is_empty() && self.errors.is_empty()
    }
}

/// The `(mtime, len)` stamp change detection keys on.
type FileStamp = (SystemTime, u64);

/// Filesystem hot reload: polls one directory of `.rsm` artifacts into a
/// [`ModelRegistry`].
pub struct DirWatcher {
    registry: Arc<ModelRegistry>,
    dir: PathBuf,
    /// Per-path change stamp of the last successful or failed load attempt.
    seen: HashMap<PathBuf, FileStamp>,
    /// Which fingerprint each path last loaded to (for retire-on-delete).
    loaded: HashMap<PathBuf, u64>,
}

impl DirWatcher {
    /// Watch `dir` into `registry`. No I/O happens until the first
    /// [`DirWatcher::scan`].
    pub fn new(registry: Arc<ModelRegistry>, dir: impl Into<PathBuf>) -> Self {
        Self {
            registry,
            dir: dir.into(),
            seen: HashMap::new(),
            loaded: HashMap::new(),
        }
    }

    /// The watched directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// One poll: load new/changed `*.rsm` files (newest mtime becomes the
    /// default version), retire models whose files were deleted.
    ///
    /// An unreadable directory reports every previously-loaded path as
    /// still present (nothing is retired on a transient I/O error).
    pub fn scan(&mut self) -> ScanReport {
        let mut report = ScanReport::default();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) => {
                report.errors.push((self.dir.clone(), e.to_string()));
                return report;
            }
        };

        // Collect candidate files with their stamps, oldest mtime first, so
        // publishing in order leaves the newest artifact as the default.
        let mut present: Vec<(PathBuf, FileStamp)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("rsm") {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let stamp = (
                meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                meta.len(),
            );
            present.push((path, stamp));
        }
        present.sort_by(|a, b| a.1 .0.cmp(&b.1 .0).then_with(|| a.0.cmp(&b.0)));

        for (path, stamp) in &present {
            if self.seen.get(path) == Some(stamp) {
                continue;
            }
            self.seen.insert(path.clone(), *stamp);
            match ServedModel::load(path) {
                Ok(model) => {
                    let fingerprint = self.registry.publish(model);
                    self.loaded.insert(path.clone(), fingerprint);
                    report.loaded.push((path.clone(), fingerprint));
                }
                Err(e) => {
                    // A stale mapping from a previous good load of this path
                    // stays served: a botched rewrite must not take down the
                    // running version.
                    report.errors.push((path.clone(), e.to_string()));
                }
            }
        }

        // Retire models whose backing file vanished — unless another path
        // still supplies the same fingerprint.
        let present_paths: std::collections::HashSet<&PathBuf> =
            present.iter().map(|(p, _)| p).collect();
        let gone: Vec<PathBuf> = self
            .loaded
            .keys()
            .filter(|p| !present_paths.contains(p))
            .cloned()
            .collect();
        for path in gone {
            self.seen.remove(&path);
            if let Some(fingerprint) = self.loaded.remove(&path) {
                let still_supplied = self.loaded.values().any(|&fp| fp == fingerprint);
                if !still_supplied && self.registry.retire(fingerprint) {
                    report.retired.push(fingerprint);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::write_artifact;
    use ml::{Dataset, GbdtModel, GbdtParams};

    fn model(seed: u32) -> ServedModel {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..40 {
            let x = (i as f32 + seed as f32 * 0.37) / 40.0;
            d.push_row(&[x, 1.0 - x], if x > 0.5 { 1.0 } else { 0.0 });
        }
        ServedModel::from_model(GbdtModel::fit(
            &d,
            GbdtParams {
                n_estimators: 2 + seed as usize % 3,
                max_depth: 3,
                ..GbdtParams::default()
            },
        ))
    }

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("redsus_registry_{}_{tag}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("temp dir");
            Self(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn publish_replaces_and_sets_default() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        assert!(registry.default_model().is_none());

        let v1 = registry.publish(model(1));
        let v2 = registry.publish(model(2));
        assert_ne!(v1, v2, "distinct models must fingerprint differently");
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.default_fingerprint(), Some(v2));
        // Explicit selection still reaches the older version.
        assert_eq!(registry.get(Some(v1)).unwrap().fingerprint(), v1);
        assert!(registry.get(Some(0xdead_beef)).is_none());

        // Re-publishing the same artifact replaces, not duplicates.
        registry.publish(model(1));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.default_fingerprint(), Some(v1));
    }

    #[test]
    fn retire_drains_instead_of_dropping() {
        let registry = ModelRegistry::new();
        let v1 = registry.publish(model(1));
        let v2 = registry.publish(model(2));

        // An "in-flight request": a clone of v1's Arc.
        let in_flight = registry.get(Some(v1)).expect("v1 served");
        let weak = Arc::downgrade(&in_flight);

        assert!(registry.retire(v1));
        assert!(!registry.retire(v1), "double retire is a no-op");
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.default_fingerprint(), Some(v2));

        // The retired model survives exactly as long as the in-flight
        // request that pinned it…
        assert_eq!(in_flight.fingerprint(), v1);
        assert!(weak.upgrade().is_some());
        drop(in_flight);
        // …and dies with it.
        assert!(
            weak.upgrade().is_none(),
            "retired model must be freed once the last request drops"
        );
    }

    #[test]
    fn retiring_the_default_falls_back_to_latest_survivor() {
        let registry = ModelRegistry::new();
        let v1 = registry.publish(model(1));
        let v2 = registry.publish(model(2));
        assert!(registry.retire(v2));
        assert_eq!(registry.default_fingerprint(), Some(v1));
        assert!(registry.retire(v1));
        assert_eq!(registry.default_fingerprint(), None);
        assert!(registry.is_empty());
    }

    #[test]
    fn infos_mark_the_default() {
        let registry = ModelRegistry::new();
        let v1 = registry.publish(model(1));
        let v2 = registry.publish(model(2));
        let infos = registry.infos();
        assert_eq!(infos.len(), 2);
        let by_fp = |fp: u64| infos.iter().find(|i| i.fingerprint == fp).unwrap();
        assert!(!by_fp(v1).is_default);
        assert!(by_fp(v2).is_default);
        assert!(by_fp(v2).features == 2);
    }

    #[test]
    fn lifecycle_counters_track_publish_retire_and_default_swaps() {
        let registry = ModelRegistry::new();
        let lc = registry.lifecycle().clone();
        let v1 = registry.publish(model(1)); // publish + default swap (None→v1)
        let v2 = registry.publish(model(2)); // publish + default swap (v1→v2)
        registry.publish(model(2)); // replacement publish, default unchanged
        assert_eq!(lc.publishes.value(), 3);
        assert_eq!(lc.default_swaps.value(), 2);
        assert!(registry.retire(v1));
        assert!(!registry.retire(v1));
        assert_eq!(lc.retires.value(), 1);
        assert_eq!(
            lc.default_swaps.value(),
            2,
            "retiring a non-default is not a swap"
        );
        assert_eq!(registry.default_fingerprint(), Some(v2));
        let v3 = registry.publish(model(3)); // publish + default swap (v2→v3)
        assert!(registry.retire(v3)); // default falls back to the survivor
        assert_eq!(registry.default_fingerprint(), Some(v2));
        assert_eq!(lc.publishes.value(), 4);
        assert_eq!(lc.retires.value(), 2);
        assert_eq!(lc.default_swaps.value(), 4);
        // Adoption into a metrics registry exposes the same atomics.
        let metrics = obs::MetricsRegistry::new();
        assert!(metrics.adopt_counter(
            "model_registry_retires_total",
            "Retires.",
            &[],
            &registry.lifecycle().retires,
        ));
        assert!(metrics
            .encode_prometheus()
            .contains("model_registry_retires_total 2"));
    }

    #[test]
    fn dir_watcher_loads_updates_and_retires() {
        let tmp = TempDir::new("watch");
        let registry = Arc::new(ModelRegistry::new());
        let mut watcher = DirWatcher::new(Arc::clone(&registry), &tmp.0);

        // Empty directory: quiet scan, empty registry.
        assert!(watcher.scan().is_quiet());
        assert!(registry.is_empty());

        // v1 appears.
        let m1 = model(1);
        let fp1 = m1.fingerprint();
        write_artifact(tmp.0.join("v1.rsm"), m1.model()).expect("write v1");
        let report = watcher.scan();
        assert_eq!(report.loaded.len(), 1);
        assert_eq!(report.loaded[0].1, fp1);
        assert_eq!(registry.default_fingerprint(), Some(fp1));

        // Unchanged files are not reloaded.
        assert!(watcher.scan().is_quiet());

        // v2 appears later: both served, v2 default (newest mtime).
        std::thread::sleep(std::time::Duration::from_millis(20));
        let m2 = model(2);
        let fp2 = m2.fingerprint();
        write_artifact(tmp.0.join("v2.rsm"), m2.model()).expect("write v2");
        let report = watcher.scan();
        assert_eq!(report.loaded.len(), 1);
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.default_fingerprint(), Some(fp2));

        // Non-artifact files are ignored.
        std::fs::write(tmp.0.join("notes.txt"), b"not a model").unwrap();
        assert!(watcher.scan().is_quiet());

        // A corrupt artifact is reported, and the running versions stand.
        std::fs::write(tmp.0.join("broken.rsm"), b"definitely not a model").unwrap();
        let report = watcher.scan();
        assert_eq!(report.errors.len(), 1);
        assert_eq!(registry.len(), 2);
        // …and is not endlessly re-reported while unchanged.
        assert!(watcher.scan().is_quiet());

        // Deleting v1's file retires it; v2 stays default.
        std::fs::remove_file(tmp.0.join("v1.rsm")).unwrap();
        let report = watcher.scan();
        assert_eq!(report.retired, vec![fp1]);
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.default_fingerprint(), Some(fp2));
    }

    #[test]
    fn dir_watcher_keeps_fingerprint_supplied_by_two_paths() {
        let tmp = TempDir::new("dup");
        let registry = Arc::new(ModelRegistry::new());
        let mut watcher = DirWatcher::new(Arc::clone(&registry), &tmp.0);
        let m = model(3);
        let fp = m.fingerprint();
        write_artifact(tmp.0.join("a.rsm"), m.model()).expect("write a");
        write_artifact(tmp.0.join("b.rsm"), m.model()).expect("write b");
        watcher.scan();
        assert_eq!(registry.len(), 1, "same fingerprint registers once");
        std::fs::remove_file(tmp.0.join("a.rsm")).unwrap();
        let report = watcher.scan();
        assert!(report.retired.is_empty(), "b.rsm still supplies {fp:#x}");
        assert_eq!(registry.len(), 1);
        std::fs::remove_file(tmp.0.join("b.rsm")).unwrap();
        assert_eq!(watcher.scan().retired, vec![fp]);
        assert!(registry.is_empty());
    }
}
