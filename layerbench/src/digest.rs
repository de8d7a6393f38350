//! Committed row digests for `live-ladder`.
//!
//! One FNV-1a digest per (ladder rung, application) cell, covering every
//! application any seed can draw, so every seed's rows are checked
//! against bytes a previous build produced.

use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("../golden/live-ladder.digests");

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest file's key for one cell.
pub fn cell_key(rung: &str, app: &str) -> String {
    format!("{rung}/{app}")
}

/// Parses the committed digests (`key hex-digest` per line, `#` comments).
pub fn load_golden() -> Result<BTreeMap<String, u64>, String> {
    parse(GOLDEN)
}

fn parse(text: &str) -> Result<BTreeMap<String, u64>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, hex) = l
                .split_once(' ')
                .ok_or_else(|| format!("bad digest line {l:?}"))?;
            let d = u64::from_str_radix(hex.trim(), 16)
                .map_err(|e| format!("bad digest line {l:?}: {e}"))?;
            Ok((key.to_string(), d))
        })
        .collect()
}

/// Writes the digests back into the source tree (rebuild to use them).
pub fn save_golden(digests: &BTreeMap<String, u64>) -> Result<(), String> {
    let mut out = String::from(
        "# live-ladder row digests: FNV-1a of each cell's CSV row at uops=200000.\n\
         # Regenerate with `--bless` only for a deliberate change of result bytes.\n",
    );
    for (k, d) in digests {
        out.push_str(&format!("{k} {d:016x}\n"));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/live-ladder.digests");
    std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote {} digests to {path}", digests.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_reference_values() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn digest_lines_round_trip() {
        let d = parse("# c\nbaseline/gzip 00000000000000ff\n").expect("parses");
        assert_eq!(d["baseline/gzip"], 255);
        assert!(parse("no-digest").is_err());
    }
}
