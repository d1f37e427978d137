//! Streaming reader for BDC/NBM bulk availability exports.
//!
//! The FCC publishes fixed-broadband availability as per-state,
//! per-technology CSV files inside a per-release directory (biannual filing
//! cadence). This module reads one such file row by row through the
//! scratch-buffer [`CsvRows`] reader, validating the schema strictly — a
//! real download that drifts from the expected shape fails with a typed
//! [`IngestError`] naming file, line and column, never with silently
//! misparsed rows.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use bdc::{AvailabilityRecord, LocationId, ProviderId, ServiceType, Technology};
use hexgrid::HexCell;

use crate::csv::{validate_header, CsvRows, Fields};
use crate::error::IngestError;

/// The canonical column set of a BDC fixed-broadband availability export,
/// in order. Mirrors the FCC's bulk download schema, reduced to the columns
/// this pipeline consumes (plus the res-8 hex id the NBM publishes claims
/// under).
pub const AVAILABILITY_COLUMNS: [&str; 12] = [
    "frn",
    "provider_id",
    "brand_name",
    "location_id",
    "technology",
    "max_advertised_download_speed",
    "max_advertised_upload_speed",
    "low_latency",
    "business_residential_code",
    "state_usps",
    "block_geoid",
    "h3_res8_id",
];

/// One fully parsed availability row: the filing record plus the location
/// geometry and provider metadata the fabric and registration sides need.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityRow {
    pub record: AvailabilityRecord,
    pub frn: u64,
    pub brand_name: String,
    pub state: String,
    pub hex: HexCell,
}

fn bad_field(file: &str, line: usize, column: &str, value: &str) -> IngestError {
    IngestError::BadField {
        file: file.to_string(),
        line,
        column: column.to_string(),
        value: value.to_string(),
    }
}

/// Parse one data row against [`AVAILABILITY_COLUMNS`].
fn parse_row(file: &str, line: usize, fields: &Fields<'_>) -> Result<AvailabilityRow, IngestError> {
    if fields.len() != AVAILABILITY_COLUMNS.len() {
        return Err(IngestError::TruncatedRow {
            file: file.to_string(),
            line,
            expected: AVAILABILITY_COLUMNS.len(),
            found: fields.len(),
        });
    }
    let frn: u64 = fields
        .get(0)
        .parse()
        .map_err(|_| bad_field(file, line, "frn", fields.get(0)))?;
    let provider_id: u32 = fields
        .get(1)
        .parse()
        .map_err(|_| bad_field(file, line, "provider_id", fields.get(1)))?;
    let brand_name = fields.get(2).to_string();
    let location_id: u64 = fields
        .get(3)
        .parse()
        .map_err(|_| bad_field(file, line, "location_id", fields.get(3)))?;
    let tech_code: u8 = fields
        .get(4)
        .parse()
        .map_err(|_| bad_field(file, line, "technology", fields.get(4)))?;
    let technology = Technology::from_code(tech_code).ok_or_else(|| IngestError::BadTechCode {
        file: file.to_string(),
        line,
        code: fields.get(4).to_string(),
    })?;
    let speed = |idx: usize, column: &str| -> Result<f64, IngestError> {
        let raw = fields.get(idx);
        let v: f64 = raw
            .parse()
            .map_err(|_| bad_field(file, line, column, raw))?;
        // `"nan".parse::<f64>()` succeeds, so the finite check is what
        // actually catches NaN/inf speeds.
        if !v.is_finite() {
            return Err(IngestError::NonFiniteSpeed {
                file: file.to_string(),
                line,
                column: column.to_string(),
                value: raw.to_string(),
            });
        }
        Ok(v)
    };
    let max_down_mbps = speed(5, "max_advertised_download_speed")?;
    let max_up_mbps = speed(6, "max_advertised_upload_speed")?;
    let low_latency = match fields.get(7) {
        "0" | "false" => false,
        "1" | "true" => true,
        other => return Err(bad_field(file, line, "low_latency", other)),
    };
    let service_type = match fields.get(8) {
        "R" => ServiceType::Residential,
        "B" => ServiceType::Business,
        "X" => ServiceType::Both,
        other => return Err(bad_field(file, line, "business_residential_code", other)),
    };
    let state = fields.get(9).to_string();
    if state.len() != 2 || !state.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(bad_field(file, line, "state_usps", &state));
    }
    let block_geoid = fields.get(10);
    if block_geoid.is_empty() || !block_geoid.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad_field(file, line, "block_geoid", block_geoid));
    }
    let hex_raw = fields.get(11);
    let hex = u64::from_str_radix(hex_raw, 16)
        .ok()
        .filter(|_| hex_raw.len() == 16)
        .and_then(HexCell::from_index)
        .ok_or_else(|| bad_field(file, line, "h3_res8_id", hex_raw))?;
    let record = AvailabilityRecord::new(
        ProviderId(provider_id),
        LocationId(location_id),
        technology,
        max_down_mbps,
        max_up_mbps,
        low_latency,
        service_type,
    )
    .map_err(|e| IngestError::BadField {
        file: file.to_string(),
        line,
        column: "max_advertised_download_speed".to_string(),
        value: e,
    })?;
    Ok(AvailabilityRow {
        record,
        frn,
        brand_name,
        state,
        hex,
    })
}

/// A streaming reader over one availability file: validates the header on
/// open, then yields one parsed row per call through the shared scratch
/// buffers (no per-row allocation beyond the row's owned strings).
pub struct AvailabilityReader {
    rows: CsvRows<BufReader<File>>,
}

impl AvailabilityReader {
    /// Open and validate the header of one availability CSV.
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        let mut rows = CsvRows::open(path)?;
        let file = rows.file().to_string();
        {
            let header = rows.next_row()?.ok_or_else(|| IngestError::MissingData {
                path: file.clone(),
                detail: "empty file: no header row".to_string(),
            })?;
            let found: Vec<&str> = (0..header.len()).map(|i| header.get(i)).collect();
            validate_header(&file, &found, &AVAILABILITY_COLUMNS)?;
        }
        Ok(Self { rows })
    }

    /// The next parsed row, or `Ok(None)` at end of file.
    pub fn next_record(&mut self) -> Result<Option<AvailabilityRow>, IngestError> {
        let file = self.rows.file().to_string();
        let line = self.rows.line_no() + 1;
        match self.rows.next_row()? {
            None => Ok(None),
            Some(fields) => parse_row(&file, line, &fields).map(Some),
        }
    }
}

/// Parse an availability file name of the canonical
/// `bdc_<STATE>_<TECH>_fixed_broadband.csv` shape into its state code and
/// technology.
pub fn parse_availability_filename(name: &str) -> Option<(String, Technology)> {
    let rest = name.strip_prefix("bdc_")?;
    let rest = rest.strip_suffix("_fixed_broadband.csv")?;
    let (state, code) = rest.split_once('_')?;
    if state.len() != 2 || !state.bytes().all(|b| b.is_ascii_uppercase()) {
        return None;
    }
    let tech = Technology::from_code(code.parse().ok()?)?;
    Some((state.to_string(), tech))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexgrid::NBM_RESOLUTION;

    fn good_row_line() -> String {
        let hex = HexCell::containing(&geoprim::LatLng::new(41.25, -96.0), NBM_RESOLUTION);
        format!("5000123,100,Acme Fiber,42,50,1000.0,1000.0,1,X,NE,310550001001000,{hex}")
    }

    fn parse_one(line: &str) -> Result<AvailabilityRow, IngestError> {
        use std::io::Cursor;
        let data = format!("{}\n{line}\n", AVAILABILITY_COLUMNS.join(","));
        let mut rows = CsvRows::from_reader(Cursor::new(data.into_bytes()), "mem".into());
        rows.next_row()?.expect("header");
        let fields = rows.next_row()?.expect("data row");
        parse_row("mem", 2, &fields)
    }

    #[test]
    fn good_row_parses() {
        let row = parse_one(&good_row_line()).expect("valid row");
        assert_eq!(row.record.provider, ProviderId(100));
        assert_eq!(row.record.technology, Technology::Fiber);
        assert_eq!(row.state, "NE");
        assert_eq!(row.frn, 5000123);
        assert_eq!(row.brand_name, "Acme Fiber");
    }

    #[test]
    fn nan_speed_is_typed_not_parsed() {
        let line = good_row_line().replace("1000.0,1000.0", "nan,1000.0");
        assert!(matches!(
            parse_one(&line),
            Err(IngestError::NonFiniteSpeed { column, .. }) if column == "max_advertised_download_speed"
        ));
    }

    #[test]
    fn bad_tech_code_is_typed() {
        let line = good_row_line().replace(",50,", ",99,");
        assert!(matches!(
            parse_one(&line),
            Err(IngestError::BadTechCode { code, .. }) if code == "99"
        ));
    }

    #[test]
    fn truncated_row_is_typed() {
        let mut line = good_row_line();
        line.truncate(line.rfind(',').unwrap());
        assert!(matches!(
            parse_one(&line),
            Err(IngestError::TruncatedRow {
                expected: 12,
                found: 11,
                ..
            })
        ));
    }

    #[test]
    fn bad_hex_id_is_typed() {
        let mut line = good_row_line();
        let cut = line.rfind(',').unwrap();
        line.truncate(cut);
        line.push_str(",nothex");
        assert!(matches!(
            parse_one(&line),
            Err(IngestError::BadField { column, .. }) if column == "h3_res8_id"
        ));
    }

    #[test]
    fn filename_round_trip() {
        let (state, tech) = parse_availability_filename("bdc_NE_50_fixed_broadband.csv").unwrap();
        assert_eq!(state, "NE");
        assert_eq!(tech, Technology::Fiber);
        let (_, lbr) = parse_availability_filename("bdc_VA_72_fixed_broadband.csv").unwrap();
        assert_eq!(lbr, Technology::LicensedByRuleFixedWireless);
        assert!(parse_availability_filename("bdc_XYZ_50_fixed_broadband.csv").is_none());
        assert!(parse_availability_filename("bdc_NE_99_fixed_broadband.csv").is_none());
        assert!(parse_availability_filename("other.csv").is_none());
    }
}
