//! The file-backed [`WorldSource`]: a data directory of BDC availability
//! exports and Ookla tiles, ingested into exactly the shape the streaming
//! runner consumes.
//!
//! Expected layout:
//!
//! ```text
//! <data_dir>/
//!   bdc/
//!     2023-06-30/                          # one directory per NBM release
//!       bdc_NE_50_fixed_broadband.csv      # per-state, per-technology files
//!       bdc_VA_72_fixed_broadband.csv
//!     2023-12-31/
//!       ...
//!   ookla/
//!     tiles_q3.csv                         # any *.csv, read in name order
//! ```
//!
//! Ingest runs the same metered-stage discipline as the synth generator:
//! every stage accounts what it holds against one [`ResidencyMeter`], a
//! configured budget is enforced per stage with the exact same breach
//! semantics, and the per-stage report lands in front of the runner's
//! pipeline stages. The removal evidence is one [`DiffChain::between`] of
//! the initial and latest releases, as §4.1.3 defines it, so it has the same
//! shape as the evidence a synthetic world reads off its removal schedule.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use asnmap::{FrnRegistration, RegistrationSource, WhoisDb};
use bdc::source::{end_stage, SourceMeta, StreamReport, WorldSource};
use bdc::{
    AvailabilityRecord, Bsl, Challenge, ClaimChange, DayStamp, DiffChain, EmptyStream, Fabric,
    FabricView, HexClaim, LocationId, NbmRelease, ProviderId, ReleaseVersion, ResidencyMeter,
};
use hexgrid::HexCell;
use speedtest::{MlabTest, OoklaTileRecord};

use crate::availability::{parse_availability_filename, AvailabilityReader};
use crate::error::IngestError;
use crate::ookla::{OoklaReader, TileShards};

/// Knobs for a file-backed ingest run.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Resident-entry budget enforced per stage, like the synth config's.
    pub max_resident_entries: Option<usize>,
    /// Shard size for the Ookla tile stream handed to the runner.
    pub ookla_chunk: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            max_resident_entries: None,
            ookla_chunk: 1024,
        }
    }
}

/// One release directory discovered on disk.
struct ReleaseDir {
    published: DayStamp,
    files: Vec<PathBuf>,
}

/// A [`WorldSource`] ingested from a BDC/Ookla data directory.
pub struct FileWorld {
    data_dir: String,
    fabric: Fabric,
    initial_release: NbmRelease,
    removal_evidence: Vec<ClaimChange>,
    challenges: Vec<Challenge>,
    methodologies: BTreeMap<ProviderId, String>,
    registrations: Vec<FrnRegistration>,
    whois: WhoisDb,
    tiles: Vec<OoklaTileRecord>,
    provider_count: usize,
    release_count: usize,
    report: StreamReport,
    meter: ResidencyMeter,
    budget: Option<usize>,
    ookla_chunk: usize,
}

/// `YYYY-MM-DD` release directory name → publication date.
fn parse_release_date(name: &str) -> Option<DayStamp> {
    let mut parts = name.split('-');
    let y: i32 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(DayStamp::from_ymd(y, m, d))
}

fn budget_breach(message: String) -> IngestError {
    IngestError::BudgetExceeded { message }
}

impl FileWorld {
    /// Ingest a data directory into a runnable world.
    pub fn load(data_dir: &Path, options: &IngestOptions) -> Result<Self, IngestError> {
        let total_started = Instant::now();
        let meter = ResidencyMeter::new();
        let budget = options.max_resident_entries;
        let mut stages = Vec::new();

        // Stage 1: discover release directories and their per-state,
        // per-technology files. Non-conforming names are skipped (READMEs,
        // checksums); a directory with *no* conforming content is an error.
        let started = Instant::now();
        let bdc_dir = data_dir.join("bdc");
        let releases = discover_releases(&bdc_dir)?;
        let file_total: usize = releases.iter().map(|r| r.files.len()).sum();
        end_stage(
            &mut stages,
            &meter,
            budget,
            "bdc_discovery",
            started,
            file_total,
        )
        .map_err(budget_breach)?;

        // Stage 2: parse every availability file. Rows stay resident (the
        // release assembly consumes them) and are metered one by one; the
        // side tables capture first-seen location geometry plus the brand
        // and FRN metadata the registration matcher runs over.
        let started = Instant::now();
        let mut per_release: Vec<(DayStamp, Vec<AvailabilityRecord>)> = Vec::new();
        let mut locations: BTreeMap<LocationId, (HexCell, String)> = BTreeMap::new();
        let mut brands: BTreeMap<ProviderId, BTreeSet<String>> = BTreeMap::new();
        let mut frn_brands: BTreeMap<(u64, u32), String> = BTreeMap::new();
        for release in &releases {
            let mut records = Vec::new();
            for path in &release.files {
                let mut reader = AvailabilityReader::open(path)?;
                while let Some(row) = reader.next_record()? {
                    meter.acquire(1);
                    locations
                        .entry(row.record.location)
                        .or_insert_with(|| (row.hex, row.state.clone()));
                    brands
                        .entry(row.record.provider)
                        .or_default()
                        .insert(row.brand_name.clone());
                    frn_brands
                        .entry((row.frn, row.record.provider.value()))
                        .or_insert(row.brand_name);
                    records.push(row.record);
                }
            }
            per_release.push((release.published, records));
        }
        end_stage(
            &mut stages,
            &meter,
            budget,
            "availability_ingest",
            started,
            file_total,
        )
        .map_err(budget_breach)?;

        // Stage 3: one BSL per distinct location id, positioned at its hex
        // centre. The fabric stays resident for the rest of the run.
        let started = Instant::now();
        let bsls: Vec<Bsl> = locations
            .iter()
            .map(|(id, (hex, state))| Bsl::new(*id, hex.center(), 1, false, state.clone()))
            .collect();
        meter.pin(bsls.len());
        let fabric = Fabric::new(bsls);
        end_stage(&mut stages, &meter, budget, "fabric_assembly", started, 1)
            .map_err(budget_breach)?;

        // Stage 4: aggregate the initial and latest releases' records into
        // NbmReleases; biannual filings are successive major versions. Their
        // record buffers move into the releases, so residency carries over
        // unchanged. The release diff reads only those two, so the records of
        // every release in between are dropped here.
        let started = Instant::now();
        let release_count = per_release.len();
        let mut built: Vec<(NbmRelease, usize)> = Vec::new();
        let mut version = ReleaseVersion::initial();
        for (i, (published, records)) in per_release.into_iter().enumerate() {
            if i > 0 {
                version = version.next_major();
            }
            let count = records.len();
            if i == 0 || i + 1 == release_count {
                let release = NbmRelease::from_records(version, published, records, &fabric);
                built.push((release, count));
            } else {
                meter.release(count);
            }
        }
        end_stage(
            &mut stages,
            &meter,
            budget,
            "release_assembly",
            started,
            release_count,
        )
        .map_err(budget_breach)?;

        // Stage 5: diff the initial release against the latest. The diff
        // sorts a copy of both releases' claims, so that transient copy is
        // metered around it; afterwards only the initial release (the public
        // view labels run against) and the removal evidence stay resident.
        let started = Instant::now();
        let (initial, latest) = (&built[0], &built[built.len() - 1]);
        let transient = initial.1 + latest.1;
        meter.acquire(transient);
        let chain = DiffChain::between(&initial.0, &latest.0);
        meter.release(transient);
        let removal_evidence = chain.removal_evidence();
        meter.pin(removal_evidence.len());
        let mut drain = built.into_iter();
        let (initial_release, _) = drain.next().expect("discovery guarantees >= 1 release");
        for (_, count) in drain {
            meter.release(count);
        }
        end_stage(&mut stages, &meter, budget, "release_diff", started, 1)
            .map_err(budget_breach)?;

        // Stage 6: Ookla tiles, read in file-name order. Tiles stay
        // resident; the runner drains them as a chunked stream.
        let started = Instant::now();
        let ookla_dir = data_dir.join("ookla");
        let ookla_files = discover_ookla_files(&ookla_dir)?;
        let mut tiles = Vec::new();
        for path in &ookla_files {
            let mut reader = OoklaReader::open(path)?;
            while let Some(tile) = reader.next_record()? {
                meter.acquire(1);
                tiles.push(tile);
            }
        }
        end_stage(
            &mut stages,
            &meter,
            budget,
            "ookla_ingest",
            started,
            ookla_files.len(),
        )
        .map_err(budget_breach)?;

        let methodologies: BTreeMap<ProviderId, String> = brands
            .into_iter()
            .map(|(provider, names)| {
                let joined = names.into_iter().collect::<Vec<_>>().join("; ");
                (provider, joined)
            })
            .collect();
        let registrations: Vec<FrnRegistration> = frn_brands
            .into_iter()
            .map(|((frn, provider_id), company_name)| FrnRegistration {
                frn,
                provider_id,
                contact_email: String::new(),
                company_name,
                physical_address: String::new(),
            })
            .collect();
        let provider_count = methodologies.len();

        let report = StreamReport {
            stages,
            total_wall: total_started.elapsed(),
            peak_resident_entries: meter.peak(),
            budget,
        };
        Ok(Self {
            data_dir: data_dir.display().to_string(),
            fabric,
            initial_release,
            removal_evidence,
            challenges: Vec::new(),
            methodologies,
            registrations,
            whois: WhoisDb::default(),
            tiles,
            provider_count,
            release_count,
            report,
            meter,
            budget,
            ookla_chunk: options.ookla_chunk.max(1),
        })
    }

    /// The ingested Ookla tiles (in file, then row order).
    pub fn tiles(&self) -> &[OoklaTileRecord] {
        &self.tiles
    }

    /// The ingested fabric.
    pub fn fabric_ref(&self) -> &Fabric {
        &self.fabric
    }

    /// The initial release's public per-hex claims.
    pub fn initial_claims(&self) -> &[HexClaim] {
        self.initial_release.hex_claims()
    }
}

fn discover_releases(bdc_dir: &Path) -> Result<Vec<ReleaseDir>, IngestError> {
    let entries = std::fs::read_dir(bdc_dir).map_err(|e| IngestError::io(bdc_dir, e))?;
    let mut dirs: Vec<(String, DayStamp, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| IngestError::io(bdc_dir, e))?;
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(published) = parse_release_date(&name) {
            dirs.push((name, published, path));
        }
    }
    if dirs.is_empty() {
        return Err(IngestError::MissingData {
            path: bdc_dir.display().to_string(),
            detail: "no release directories (expected YYYY-MM-DD subdirectories)".to_string(),
        });
    }
    // ISO date names sort chronologically.
    dirs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut releases = Vec::with_capacity(dirs.len());
    for (_, published, dir) in dirs {
        let entries = std::fs::read_dir(&dir).map_err(|e| IngestError::io(&dir, e))?;
        let mut files: Vec<(String, u8, PathBuf)> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| IngestError::io(&dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some((state, tech)) = parse_availability_filename(&name) {
                files.push((state, tech.code(), entry.path()));
            }
        }
        if files.is_empty() {
            return Err(IngestError::MissingData {
                path: dir.display().to_string(),
                detail: "no availability files (expected bdc_<STATE>_<TECH>_fixed_broadband.csv)"
                    .to_string(),
            });
        }
        // Canonical file order: state, then technology code.
        files.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        releases.push(ReleaseDir {
            published,
            files: files.into_iter().map(|(_, _, p)| p).collect(),
        });
    }
    Ok(releases)
}

fn discover_ookla_files(ookla_dir: &Path) -> Result<Vec<PathBuf>, IngestError> {
    let entries = std::fs::read_dir(ookla_dir).map_err(|e| IngestError::io(ookla_dir, e))?;
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| IngestError::io(ookla_dir, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") {
            files.push((name, entry.path()));
        }
    }
    if files.is_empty() {
        return Err(IngestError::MissingData {
            path: ookla_dir.display().to_string(),
            detail: "no Ookla tile files (expected *.csv)".to_string(),
        });
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files.into_iter().map(|(_, p)| p).collect())
}

impl WorldSource for FileWorld {
    type OoklaItem = OoklaTileRecord;
    type MlabItem = MlabTest;
    type OoklaStream<'a> = TileShards<'a>;
    type MlabStream<'a> = EmptyStream<MlabTest>;

    fn meta(&self) -> SourceMeta {
        SourceMeta {
            name: "bdc-csv",
            detail: format!(
                "{} · {} releases · {} tiles",
                self.data_dir,
                self.release_count,
                self.tiles.len()
            ),
            provider_count: self.provider_count,
            release_count: self.release_count,
        }
    }

    fn meter(&self) -> &ResidencyMeter {
        &self.meter
    }

    fn budget(&self) -> Option<usize> {
        self.budget
    }

    fn source_report(&self) -> &StreamReport {
        &self.report
    }

    fn fabric(&self) -> &dyn FabricView {
        &self.fabric
    }

    fn initial_release(&self) -> &NbmRelease {
        &self.initial_release
    }

    fn removal_evidence(&self) -> &[ClaimChange] {
        &self.removal_evidence
    }

    fn challenges(&self) -> &[Challenge] {
        &self.challenges
    }

    fn methodologies(&self) -> &BTreeMap<ProviderId, String> {
        &self.methodologies
    }

    fn ookla_stream(&self) -> TileShards<'_> {
        TileShards::new(&self.tiles, self.ookla_chunk)
    }

    fn mlab_stream(&self) -> EmptyStream<MlabTest> {
        EmptyStream::new()
    }
}

impl RegistrationSource for FileWorld {
    fn registrations(&self) -> &[FrnRegistration] {
        &self.registrations
    }

    fn whois(&self) -> &WhoisDb {
        &self.whois
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoprim::LatLng;
    use hexgrid::{QuadTile, NBM_RESOLUTION, OOKLA_ZOOM};
    use std::fs;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("redsus_ingest_{}_{}", tag, std::process::id()));
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).expect("create temp dir");
            Self(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    const HEADER: &str = "frn,provider_id,brand_name,location_id,technology,\
max_advertised_download_speed,max_advertised_upload_speed,low_latency,\
business_residential_code,state_usps,block_geoid,h3_res8_id";

    fn hex_at(lat: f64, lng: f64) -> String {
        HexCell::containing(&LatLng::new(lat, lng), NBM_RESOLUTION).to_string()
    }

    /// Two releases, one state, one tech, three locations; the second
    /// release drops location 3 (one removal).
    fn write_fixture(dir: &Path) {
        let hex1 = hex_at(41.25, -96.0);
        let hex2 = hex_at(41.30, -96.1);
        let r1 = dir.join("bdc/2023-06-30");
        let r2 = dir.join("bdc/2023-12-31");
        fs::create_dir_all(&r1).unwrap();
        fs::create_dir_all(&r2).unwrap();
        fs::write(
            r1.join("bdc_NE_50_fixed_broadband.csv"),
            format!(
                "{HEADER}\n\
                 5000001,100,Acme Fiber,1,50,1000.0,1000.0,1,X,NE,310550001001000,{hex1}\n\
                 5000001,100,Acme Fiber,2,50,1000.0,1000.0,1,X,NE,310550001001001,{hex1}\n\
                 5000001,100,Acme Fiber,3,50,1000.0,1000.0,1,X,NE,310550001001002,{hex2}\n"
            ),
        )
        .unwrap();
        fs::write(
            r2.join("bdc_NE_50_fixed_broadband.csv"),
            format!(
                "{HEADER}\n\
                 5000001,100,Acme Fiber,1,50,1000.0,1000.0,1,X,NE,310550001001000,{hex1}\n\
                 5000001,100,Acme Fiber,2,50,1000.0,1000.0,1,X,NE,310550001001001,{hex1}\n"
            ),
        )
        .unwrap();
        let ookla = dir.join("ookla");
        fs::create_dir_all(&ookla).unwrap();
        let qk = QuadTile::containing(&LatLng::new(41.25, -96.0), OOKLA_ZOOM).quadkey();
        fs::write(
            ookla.join("tiles.csv"),
            format!(
                "quadkey,avg_d_kbps,avg_u_kbps,avg_lat_ms,tests,devices\n\
                 {qk},150000.0,20000.0,12.5,42,17\n"
            ),
        )
        .unwrap();
    }

    #[test]
    fn loads_and_diffs_a_two_release_directory() {
        let tmp = TempDir::new("load");
        write_fixture(tmp.path());
        let world = FileWorld::load(tmp.path(), &IngestOptions::default()).expect("fixture loads");

        assert_eq!(world.fabric_ref().len(), 3);
        assert_eq!(world.release_count, 2);
        assert_eq!(world.provider_count, 1);
        // The dropped location surfaces as exactly one removal.
        assert_eq!(world.removal_evidence().len(), 1);
        assert_eq!(world.removal_evidence()[0].location, LocationId(3));
        assert_eq!(world.tiles().len(), 1);
        assert_eq!(world.registrations().len(), 1);
        assert_eq!(world.registrations()[0].company_name, "Acme Fiber");
        let meta = world.meta();
        assert_eq!(meta.name, "bdc-csv");
        // Every ingest stage reported.
        for name in [
            "bdc_discovery",
            "availability_ingest",
            "fabric_assembly",
            "release_assembly",
            "release_diff",
            "ookla_ingest",
        ] {
            assert!(
                world.source_report().stage(name).is_some(),
                "missing stage {name}"
            );
        }
    }

    #[test]
    fn tiny_budget_breaches_with_typed_error() {
        let tmp = TempDir::new("budget");
        write_fixture(tmp.path());
        let options = IngestOptions {
            max_resident_entries: Some(1),
            ..IngestOptions::default()
        };
        let Err(err) = FileWorld::load(tmp.path(), &options) else {
            panic!("5 resident rows must breach a budget of 1");
        };
        assert!(matches!(err, IngestError::BudgetExceeded { .. }), "{err}");
        assert!(err
            .to_string()
            .contains("exceeded the resident-entry budget"));
    }

    #[test]
    fn empty_directory_is_missing_data() {
        let tmp = TempDir::new("empty");
        fs::create_dir_all(tmp.path().join("bdc")).unwrap();
        let Err(err) = FileWorld::load(tmp.path(), &IngestOptions::default()) else {
            panic!("an empty bdc directory must fail discovery");
        };
        assert!(matches!(err, IngestError::MissingData { .. }), "{err}");
    }
}
