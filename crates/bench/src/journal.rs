//! The bit-exact report codec: a [`CellReport`] as bytes, with every
//! `f64` stored as its raw IEEE-754 bits.
//!
//! The result cache ([`crate::cache`]) stores each entry's payload in
//! this encoding, so a replayed report is bit-identical to the solved
//! one — including NaN quantiles of empty histograms, which JSON could
//! not round-trip. [`validate_report_roundtrip`] is the acceptance test
//! the recovery-block layers (rbserve's cell-retry loop, the chaos
//! harnesses) run on a freshly solved cell before committing it.
//!
//! Layout, little-endian throughout: the id (u32-length-prefixed
//! UTF-8), the seed (u64), the metric count (u32), then each metric —
//! tag 0 for a scalar (name, value, std_err, count, ok) or tag 1 for a
//! distribution (name, ok, support, bin counts, under/overflow, count,
//! mean, quantiles).
//!
//! The module name is historical; `rbserve` and the benchmark import
//! [`validate_report_roundtrip`] by this path.

use rbcore::metrics::{DistSummary, Metric, Quantile};

use crate::sweep::CellReport;

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string exceeds u32::MAX bytes"));
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("record truncated at byte {}", self.pos))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in record string".into())
    }

    fn finish(self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after record body",
                self.bytes.len() - self.pos
            ))
        }
    }
}

fn encode_metric(enc: &mut Enc, m: &Metric) {
    match m {
        Metric::Scalar {
            name,
            value,
            std_err,
            count,
            ok,
        } => {
            enc.u8(0);
            enc.str(name);
            enc.f64(*value);
            enc.f64(*std_err);
            enc.u64(*count);
            enc.u8(*ok as u8);
        }
        Metric::Distribution { name, dist, ok } => {
            enc.u8(1);
            enc.str(name);
            enc.u8(*ok as u8);
            enc.f64(dist.lo);
            enc.f64(dist.hi);
            enc.u32(dist.counts.len() as u32);
            for &c in &dist.counts {
                enc.u64(c);
            }
            enc.u64(dist.underflow);
            enc.u64(dist.overflow);
            enc.u64(dist.count);
            enc.f64(dist.mean);
            enc.u32(dist.quantiles.len() as u32);
            for q in &dist.quantiles {
                enc.f64(q.p);
                enc.f64(q.x);
            }
        }
    }
}

fn decode_metric(dec: &mut Dec) -> Result<Metric, String> {
    match dec.u8()? {
        0 => Ok(Metric::Scalar {
            name: dec.str()?,
            value: dec.f64()?,
            std_err: dec.f64()?,
            count: dec.u64()?,
            ok: dec.u8()? != 0,
        }),
        1 => {
            let name = dec.str()?;
            let ok = dec.u8()? != 0;
            let lo = dec.f64()?;
            let hi = dec.f64()?;
            let n_counts = dec.u32()? as usize;
            let mut counts = Vec::with_capacity(n_counts.min(1 << 20));
            for _ in 0..n_counts {
                counts.push(dec.u64()?);
            }
            let underflow = dec.u64()?;
            let overflow = dec.u64()?;
            let count = dec.u64()?;
            let mean = dec.f64()?;
            let n_q = dec.u32()? as usize;
            let mut quantiles = Vec::with_capacity(n_q.min(1 << 20));
            for _ in 0..n_q {
                quantiles.push(Quantile {
                    p: dec.f64()?,
                    x: dec.f64()?,
                });
            }
            Ok(Metric::Distribution {
                name,
                ok,
                dist: DistSummary {
                    lo,
                    hi,
                    counts,
                    underflow,
                    overflow,
                    count,
                    mean,
                    quantiles,
                },
            })
        }
        tag => Err(format!("unknown metric tag {tag}")),
    }
}

/// Encodes a [`CellReport`] — id, seed, metric vector with `f64`s as
/// raw bits — with no framing: the payload of a cache entry.
pub(crate) fn encode_report_payload(report: &CellReport) -> Vec<u8> {
    let mut enc = Enc(Vec::new());
    enc.str(&report.id);
    enc.u64(report.seed);
    enc.u32(report.metrics.len() as u32);
    for m in &report.metrics {
        encode_metric(&mut enc, m);
    }
    enc.0
}

/// Decodes a payload written by [`encode_report_payload`], rejecting
/// trailing bytes.
pub(crate) fn decode_report_payload(payload: &[u8]) -> Result<CellReport, String> {
    let mut dec = Dec::new(payload);
    let id = dec.str()?;
    let seed = dec.u64()?;
    let n = dec.u32()? as usize;
    let mut metrics = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        metrics.push(decode_metric(&mut dec)?);
    }
    dec.finish()?;
    Ok(CellReport { id, seed, metrics })
}

/// Validates that `report` survives the payload codec bit-exactly:
/// encode → decode → re-encode must reproduce the same bytes. This is
/// the *acceptance test* the recovery-block layers run on a freshly
/// solved cell before committing it (rbserve's cell-retry loop, chaos
/// harnesses): a report this check rejects could never be cached or
/// replayed faithfully.
pub fn validate_report_roundtrip(report: &CellReport) -> Result<(), String> {
    let bytes = encode_report_payload(report);
    let back = decode_report_payload(&bytes)?;
    if encode_report_payload(&back) != bytes {
        return Err("payload codec round-trip diverged".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip_bit_exactly() {
        let report = CellReport {
            id: "n3/mu1/lam0.5".into(),
            seed: u64::MAX - 17, // full 64-bit fidelity (JSON would lose this)
            metrics: vec![
                Metric::exact("EX", 2.598_712_3e-9),
                Metric::check("gate", -0.0, 1e-9, false),
                Metric::Scalar {
                    name: "weird".into(),
                    value: f64::NAN,
                    std_err: f64::INFINITY,
                    count: u64::MAX,
                    ok: true,
                },
                Metric::Distribution {
                    name: "X_hist".into(),
                    ok: true,
                    dist: DistSummary {
                        lo: 0.0,
                        hi: 4.5,
                        counts: vec![3, 0, 7, 2],
                        underflow: 1,
                        overflow: 9,
                        count: 22,
                        mean: 1.75,
                        quantiles: vec![
                            Quantile { p: 0.5, x: 1.5 },
                            Quantile {
                                p: 0.99,
                                x: f64::NAN,
                            },
                        ],
                    },
                },
            ],
        };
        let got = decode_report_payload(&encode_report_payload(&report)).expect("decode");
        assert_eq!(got.id, report.id);
        assert_eq!(got.seed, report.seed);
        assert_eq!(got.metrics.len(), report.metrics.len());
        for (a, b) in report.metrics.iter().zip(&got.metrics) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.value().to_bits(), b.value().to_bits(), "{}", a.name());
            assert_eq!(a.std_err().to_bits(), b.std_err().to_bits());
            assert_eq!(a.count(), b.count());
            assert_eq!(a.ok(), b.ok());
        }
        let (a, b) = (
            report.metrics[3].dist().unwrap(),
            got.metrics[3].dist().unwrap(),
        );
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.quantiles[1].x.to_bits(), b.quantiles[1].x.to_bits());
        validate_report_roundtrip(&report).expect("acceptance test passes");
    }

    #[test]
    fn decode_rejects_trailing_garbage_bad_tags_and_truncation() {
        let report = CellReport {
            id: "c".into(),
            seed: 7,
            metrics: vec![Metric::exact("v", 1.0)],
        };
        let whole = encode_report_payload(&report);
        let mut bytes = whole.clone();
        bytes.push(0xAB);
        assert!(decode_report_payload(&bytes)
            .unwrap_err()
            .contains("trailing"));
        // The metric tag follows the id (4 + 1 bytes), seed (8) and
        // metric count (4).
        let mut bytes = whole.clone();
        bytes[17] = 0x77;
        assert!(decode_report_payload(&bytes).unwrap_err().contains("tag"));
        assert!(decode_report_payload(&whole[..4])
            .unwrap_err()
            .contains("truncated"));
    }
}
