//! Streaming reader for Ookla Open Data quarterly tile exports.
//!
//! Ookla publishes quarterly fixed-broadband performance aggregates keyed by
//! zoom-16 quadkey tiles. This module reads the CSV shape of those exports
//! (reduced to the columns this pipeline consumes) with the same strict
//! schema rules as the BDC reader; the file source hands the parsed tiles to
//! the streaming runner as a `bdc::SliceShards` stream.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use hexgrid::QuadTile;
use speedtest::OoklaTileRecord;

use crate::csv::{validate_header, CsvRows, Fields};
use crate::error::IngestError;

/// The canonical column set of an Ookla open-data tile export, in order.
pub const OOKLA_COLUMNS: [&str; 6] = [
    "quadkey",
    "avg_d_kbps",
    "avg_u_kbps",
    "avg_lat_ms",
    "tests",
    "devices",
];

fn bad_field(file: &str, line: usize, column: &str, value: &str) -> IngestError {
    IngestError::BadField {
        file: file.to_string(),
        line,
        column: column.to_string(),
        value: value.to_string(),
    }
}

fn parse_row(file: &str, line: usize, fields: &Fields<'_>) -> Result<OoklaTileRecord, IngestError> {
    if fields.len() != OOKLA_COLUMNS.len() {
        return Err(IngestError::TruncatedRow {
            file: file.to_string(),
            line,
            expected: OOKLA_COLUMNS.len(),
            found: fields.len(),
        });
    }
    let tile = QuadTile::from_quadkey(fields.get(0))
        .map_err(|_| bad_field(file, line, "quadkey", fields.get(0)))?;
    let float = |idx: usize, column: &str, speed: bool| -> Result<f64, IngestError> {
        let raw = fields.get(idx);
        let v: f64 = raw
            .parse()
            .map_err(|_| bad_field(file, line, column, raw))?;
        if !v.is_finite() {
            if speed {
                return Err(IngestError::NonFiniteSpeed {
                    file: file.to_string(),
                    line,
                    column: column.to_string(),
                    value: raw.to_string(),
                });
            }
            return Err(bad_field(file, line, column, raw));
        }
        Ok(v)
    };
    let avg_download_kbps = float(1, "avg_d_kbps", true)?;
    let avg_upload_kbps = float(2, "avg_u_kbps", true)?;
    let avg_latency_ms = float(3, "avg_lat_ms", false)?;
    let count = |idx: usize, column: &str| -> Result<u32, IngestError> {
        fields
            .get(idx)
            .parse()
            .map_err(|_| bad_field(file, line, column, fields.get(idx)))
    };
    let tests = count(4, "tests")?;
    let devices = count(5, "devices")?;
    Ok(OoklaTileRecord {
        tile,
        tests,
        devices,
        avg_download_kbps,
        avg_upload_kbps,
        avg_latency_ms,
    })
}

/// A streaming reader over one Ookla tile export: validates the header on
/// open, then yields one parsed tile per call.
pub struct OoklaReader {
    rows: CsvRows<BufReader<File>>,
}

impl OoklaReader {
    /// Open and validate the header of one Ookla tile CSV.
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        let mut rows = CsvRows::open(path)?;
        let file = rows.file().to_string();
        {
            let header = rows.next_row()?.ok_or_else(|| IngestError::MissingData {
                path: file.clone(),
                detail: "empty file: no header row".to_string(),
            })?;
            let found: Vec<&str> = (0..header.len()).map(|i| header.get(i)).collect();
            validate_header(&file, &found, &OOKLA_COLUMNS)?;
        }
        Ok(Self { rows })
    }

    /// The next parsed tile, or `Ok(None)` at end of file.
    pub fn next_record(&mut self) -> Result<Option<OoklaTileRecord>, IngestError> {
        let file = self.rows.file().to_string();
        let line = self.rows.line_no() + 1;
        match self.rows.next_row()? {
            None => Ok(None),
            Some(fields) => parse_row(&file, line, &fields).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoprim::LatLng;
    use hexgrid::OOKLA_ZOOM;
    use std::io::Cursor;

    fn parse_one(line: &str) -> Result<OoklaTileRecord, IngestError> {
        let data = format!("{}\n{line}\n", OOKLA_COLUMNS.join(","));
        let mut rows = CsvRows::from_reader(Cursor::new(data.into_bytes()), "mem".into());
        rows.next_row().unwrap().expect("header");
        let fields = rows.next_row()?.expect("data row");
        parse_row("mem", 2, &fields)
    }

    fn some_quadkey() -> String {
        QuadTile::containing(&LatLng::new(41.25, -96.0), OOKLA_ZOOM).quadkey()
    }

    #[test]
    fn good_tile_parses() {
        let qk = some_quadkey();
        let rec = parse_one(&format!("{qk},150000.5,20000.0,12.5,42,17")).expect("valid tile");
        assert_eq!(rec.tile.quadkey(), qk);
        assert_eq!(rec.tests, 42);
        assert_eq!(rec.devices, 17);
        assert_eq!(rec.avg_download_kbps, 150000.5);
    }

    #[test]
    fn bad_quadkey_is_typed() {
        assert!(matches!(
            parse_one("55AB,1.0,1.0,1.0,1,1"),
            Err(IngestError::BadField { column, .. }) if column == "quadkey"
        ));
    }

    #[test]
    fn non_finite_speed_is_typed() {
        let qk = some_quadkey();
        assert!(matches!(
            parse_one(&format!("{qk},inf,1.0,1.0,1,1")),
            Err(IngestError::NonFiniteSpeed { column, .. }) if column == "avg_d_kbps"
        ));
    }
}
