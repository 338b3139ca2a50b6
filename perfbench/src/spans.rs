//! Spans recorded around calls into each layer, kept in memory and
//! written out when the traced pass ends.
//!
//! A span has a name (the layer), a parent and a duration. A layer's
//! self time is its spans' durations minus the part their child spans
//! cover. Some children are *inferred*: a pass that decodes a tape and
//! feeds a consumer cannot be split from outside, so the decode share
//! is taken from a separately timed decode-only pass of the same tape
//! and recorded as a child of known duration. The root span covers
//! the whole traced pass; its self time is the `unattributed`
//! remainder, where a layer the benchmark does not time shows up.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Rec {
    name: String,
    parent: Option<usize>,
    ns: u64,
}

#[derive(Default)]
pub struct Spans {
    recs: Vec<Rec>,
    open: Vec<(usize, Instant)>,
}

impl Spans {
    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.recs.len();
        self.recs.push(Rec {
            name: name.to_string(),
            parent: self.open.last().map(|o| o.0),
            ns: 0,
        });
        self.open.push((id, Instant::now()));
        id
    }

    /// Closes span `id`, which must be the innermost open one, and
    /// returns its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let (top, t0) = self.open.pop().expect("close without open span");
        assert_eq!(top, id, "spans must close innermost first");
        let ns = t0.elapsed().as_nanos() as u64;
        self.recs[id].ns = ns;
        ns
    }

    /// Runs `f` inside a span named `name`; returns its result and
    /// duration in ns.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.open(name);
        let r = f();
        (r, self.close(id))
    }

    /// Records a span whose duration was measured elsewhere: an
    /// inferred child, or a child process's own timings.
    pub fn push(&mut self, parent: Option<usize>, name: &str, ns: u64) -> usize {
        self.recs.push(Rec {
            name: name.to_string(),
            parent,
            ns,
        });
        self.recs.len() - 1
    }

    /// Self time per layer name in ns.
    pub fn self_times(&self) -> BTreeMap<String, u64> {
        let mut child = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child[p] += r.ns;
            }
        }
        let mut out = BTreeMap::new();
        for (r, c) in self.recs.iter().zip(&child) {
            *out.entry(r.name.clone()).or_insert(0) += r.ns.saturating_sub(*c);
        }
        out
    }

    /// Duration of span `id` in ns.
    pub fn ns(&self, id: usize) -> u64 {
        self.recs[id].ns
    }

    /// Writes every span (`id parent name ns`) and the self-time table
    /// to `path`, and the table to stderr. `root` names the span that
    /// covers the traced pass.
    pub fn write(&self, path: &Path, root: &str) -> Result<(), String> {
        let mut text = String::from("# id parent name ns\n");
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(text, "{i} {parent} {} {}", r.name, r.ns);
        }
        let wall: u64 = self
            .recs
            .iter()
            .filter(|r| r.parent.is_none())
            .map(|r| r.ns)
            .sum();
        let mut table = String::from("# layer self_ms share\n");
        for (name, ns) in self.self_times() {
            let label = if name == root { "unattributed" } else { &name };
            let _ = writeln!(
                table,
                "{label} {:.3} {:.4}",
                ns as f64 / 1e6,
                ns as f64 / wall.max(1) as f64
            );
        }
        eprint!("{table}");
        text.push_str(&table);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}
