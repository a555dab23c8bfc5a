//! Response checking: every reply is compared with the answer the
//! generator's construction predicts.

use crate::gen::{hoeffding_samples, Expect, Volume};
use cqa_engine::Response;

/// The value of the `key=` token of a response header.
pub fn field<'a>(header: &'a str, key: &str) -> Option<&'a str> {
    header
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

/// A printed rational (`n/d` or `n`) as a float.
fn rational(s: &str) -> Option<f64> {
    match s.split_once('/') {
        Some((n, d)) => Some(n.parse::<f64>().ok()? / d.parse::<f64>().ok()?),
        None => s.parse().ok(),
    }
}

fn require(header: &str, key: &str, want: &str) -> Result<(), String> {
    match field(header, key) {
        Some(got) if got == want => Ok(()),
        got => Err(format!("want {key}={want}, got {got:?} in `{header}`")),
    }
}

/// Checks one `EXEC` header (a response header or a `BATCH` payload line).
fn check_exec(header: &str, expect: &Expect) -> Result<(), String> {
    if !header.starts_with("OK EXEC ") {
        return Err(format!("not an OK EXEC: `{header}`"));
    }
    match expect {
        Expect::Exact { value, cache } => {
            require(header, "status", "exact")?;
            require(header, "value", &value.to_string())?;
            require(header, "cache", cache)
        }
        Expect::Approx {
            volume,
            eps,
            delta,
            cache,
        } => {
            require(header, "status", "approx")?;
            require(header, "cache", cache)?;
            require(header, "eps", &eps.to_string())?;
            require(header, "delta", &delta.to_string())?;
            require(
                header,
                "samples",
                &hoeffding_samples(*eps, *delta).to_string(),
            )?;
            let got = field(header, "value").ok_or_else(|| format!("no value in `{header}`"))?;
            match volume {
                Volume::Oracle(want) if got == want => Ok(()),
                Volume::Oracle(want) => Err(format!("want value={want} in `{header}`")),
                Volume::Closed(v) => match rational(got) {
                    Some(est) if (est - v).abs() <= *eps => Ok(()),
                    _ => Err(format!("value not within {eps} of {v} in `{header}`")),
                },
            }
        }
        other => Err(format!("{other:?} is not an EXEC expectation")),
    }
}

/// Checks a whole response against what the request expects.
pub fn check(resp: &Response, expect: &Expect) -> Result<(), String> {
    let h = &resp.header;
    match expect {
        Expect::Load { statements } => {
            if !h.starts_with("OK LOAD ") {
                return Err(format!("not an OK LOAD: `{h}`"));
            }
            require(h, "statements", &statements.to_string())
        }
        Expect::Prepare { name } => {
            if h.starts_with(&format!("OK PREPARE {name} ")) {
                Ok(())
            } else {
                Err(format!("not an OK PREPARE {name}: `{h}`"))
            }
        }
        Expect::Sum { value } => {
            if !h.starts_with("OK SUM ") {
                return Err(format!("not an OK SUM: `{h}`"));
            }
            require(h, "value", &value.to_string())
        }
        Expect::Batch(inner) => {
            if !h.starts_with("OK BATCH ") {
                return Err(format!("not an OK BATCH: `{h}`"));
            }
            require(h, "n", &inner.len().to_string())?;
            require(h, "errors", "0")?;
            if resp.body.len() != inner.len() {
                return Err(format!("BATCH body has {} lines", resp.body.len()));
            }
            resp.body
                .iter()
                .zip(inner)
                .try_for_each(|(line, e)| check_exec(line, e))
        }
        exec => check_exec(h, exec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Frac;

    fn resp(header: &str) -> Response {
        Response {
            header: header.to_string(),
            body: Vec::new(),
        }
    }

    #[test]
    fn exact_answers_must_match_value_and_cache_tag() {
        let e = Expect::Exact {
            value: Frac::new(2, 20),
            cache: "miss",
        };
        let ok = "OK EXEC q status=exact value=1/10 cache=miss steps=20";
        assert!(check(&resp(ok), &e).is_ok());
        for bad in [
            "OK EXEC q status=exact value=1/10 cache=hit steps=20",
            "OK EXEC q status=exact value=1/5 cache=miss steps=20",
            "OK EXEC q status=approx value=1/10 eps=0.05 delta=0.05 samples=739 \
             reason=nonlinear cache=miss",
            "ERR exec no prepared query `q`",
        ] {
            assert!(check(&resp(bad), &e).is_err(), "{bad}");
        }
    }

    #[test]
    fn approx_answers_must_match_samples_and_lie_within_eps() {
        let e = Expect::Approx {
            volume: Volume::Closed(0.2),
            eps: 0.05,
            delta: 0.05,
            cache: "hit",
        };
        let h = |value: &str, samples: usize| {
            resp(&format!(
                "OK EXEC q status=approx value={value} eps=0.05 delta=0.05 samples={samples} \
                 reason=nonlinear cache=hit"
            ))
        };
        assert!(check(&h("156/739", 739), &e).is_ok());
        assert!(check(&h("200/739", 739), &e).is_err(), "0.27 is too far");
        assert!(check(&h("156/739", 700), &e).is_err(), "wrong sample count");
        let oracle = Expect::Approx {
            volume: Volume::Oracle("700/739".into()),
            eps: 0.05,
            delta: 0.05,
            cache: "hit",
        };
        assert!(check(&h("700/739", 739), &oracle).is_ok());
        assert!(check(&h("699/739", 739), &oracle).is_err());
    }

    #[test]
    fn batch_checks_every_line() {
        let line = "OK EXEC q status=exact value=1/2 cache=hit steps=3";
        let e = Expect::Exact {
            value: Frac::new(1, 2),
            cache: "hit",
        };
        let mut r = resp("OK BATCH n=2 errors=0");
        r.body = vec![line.to_string(), line.to_string()];
        assert!(check(&r, &Expect::Batch(vec![e.clone(), e.clone()])).is_ok());
        r.body[1] = "ERR exec boom".to_string();
        assert!(check(&r, &Expect::Batch(vec![e.clone(), e])).is_err());
    }
}
