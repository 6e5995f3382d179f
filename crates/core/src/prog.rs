//! Segment cost programs: a compact bytecode compiled from recorded
//! charge streams, replayed by a tight VM against the flat TLS slots.
//!
//! PR 5's site memoization replays a marked region from a flat
//! `{Δacc, Δcounts}` delta. This module generalizes the record side to a
//! *structured* program — the first execution of a `(site, key)` region
//! compiles into a small instruction sequence ([`Instr`]) that captures
//! loops ([`Instr::Loop`]), nested memoized regions ([`Instr::Call`])
//! and per-path branch arms ([`Instr::Branch`], the wire-format arm
//! header) instead of an opaque delta. Programs are:
//!
//! * **replayable** — [`CompiledProg`] is the lowered hot form (total
//!   `Δacc` plus sparse per-op rows); the VM applies it to the fast
//!   slots in a handful of adds, bit-identical to live charging for
//!   integer-valued cost tables (every partial sum is an exact `f64`
//!   integer below 2^53);
//! * **serializable** — [`ProgramSet`] round-trips through a compact
//!   byte encoding ([`ProgramSet::to_bytes`], closed by an FNV-1a
//!   checksum) validated by an FNV-1a fingerprint of the cost-table
//!   bits ([`table_fingerprint`]). A set recorded in
//!   one process warm-starts sites in another: on a local miss the
//!   store consults the frozen set by the site's *stable* identity (a
//!   hash of its `file:line:column` name) and compiles the program for
//!   the installed table;
//! * **rejectable** — a set whose fingerprint does not match the
//!   installed cost table is ignored (counted in `est.prog.rejects`)
//!   and every region simply charges live, so a stale cache can slow
//!   an estimate down but never corrupt it.
//!
//! The keying scheme is `(site, caller key, branch-outcome key)`: the
//! caller folds every value that changes the region's charge stream —
//! trip counts, data-dependent branch outcomes computed in plain
//! (uncharged) Rust — into the `u64` key, so data-dependent control
//! flow compiles into one program per executed path.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::cost::{CostTable, Op, ALL_OPS, OP_COUNT};

/// Largest magnitude at which every integer is exactly representable as
/// an `f64` (2^53): the bound under which compiled `Δacc` recomputation
/// is bit-identical to live accumulation.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// Maximum [`Instr::Call`] nesting depth the compiler follows before
/// declaring the program malformed (defends against reference cycles in
/// a corrupted serialized set). Deep enough for recursive workloads
/// that key each depth separately (e.g. `fib(n)` calling `fib(n-1)`).
const MAX_CALL_DEPTH: u32 = 64;

// ====================================================== the bytecode ==

/// One cost-program instruction.
///
/// The structured form a site records; see the module docs for the
/// lifecycle. `Loop` and `Branch` carry *lengths* — the following
/// `body`/`len` instructions form the nested block — so a program is a
/// flat `Vec<Instr>` with no allocation per nesting level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Charge `count` executions of `op`: `acc += count · cost[op]`,
    /// `counts[op] += count`.
    ChargeRow {
        /// The elementary operation charged.
        op: Op,
        /// How many times the region charged it.
        count: u64,
    },
    /// Raise the parallel-resource ready frontier to `f64::from_bits(bits)`.
    /// Reserved: sequential replay (the only mode that memoizes today)
    /// never records it, and the compiler rejects programs containing it.
    MaxReady {
        /// The frontier value, by bit pattern.
        bits: u64,
    },
    /// Execute the next `body` instructions `n` times (a uniform loop
    /// collapsed by the recorder: `g_loop!` iterations whose charge
    /// streams were identical).
    Loop {
        /// Trip count.
        n: u64,
        /// Number of following instructions forming the loop body.
        body: u32,
    },
    /// Execute the program of another `(site, key)` — a nested memoized
    /// region encountered while recording. `site` is the callee's stable
    /// identity hash.
    Call {
        /// Stable site-identity hash of the callee.
        site: u64,
        /// The callee's full key.
        key: u64,
    },
    /// Arm header in the serialized per-site grouping: the next `len`
    /// instructions are the program of one `key` (branch-outcome path)
    /// of the site. Never appears inside a program body.
    Branch {
        /// The arm's full `(caller, branch-outcome)` key.
        key: u64,
        /// Number of following instructions forming the arm.
        len: u32,
    },
}

/// A structured cost program: the recorded instruction sequence of one
/// `(site, key)` region.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CostProgram {
    instrs: Vec<Instr>,
}

impl CostProgram {
    /// Wraps an instruction sequence.
    pub fn new(instrs: Vec<Instr>) -> CostProgram {
        CostProgram { instrs }
    }

    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program charges nothing.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

// ================================================== FNV-1a hashing ==

/// 64-bit FNV-1a over a byte stream.
pub(crate) fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 64-bit FNV-1a folding `u64` words byte-by-byte.
pub(crate) fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Word-folding FNV-style [`Hasher`] used by the program maps on the
/// charging path — `(u32, u64)` site keys hash in two multiplies instead
/// of SipHash's full permutation.
#[derive(Clone)]
pub(crate) struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so dense low-entropy keys spread over the
        // table's low bits (HashMap masks with capacity - 1).
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x0000_0100_0000_01b3);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` for the word-folding FNV hasher.
pub(crate) type BuildFnv = BuildHasherDefault<Fnv64>;

/// Stable identity of a lexical site: FNV-1a of its
/// `file:line:column` name. Zero for anonymous sites (which therefore
/// never serialize).
pub(crate) fn stable_site_hash(name: &str) -> u64 {
    if name.is_empty() {
        0
    } else {
        fnv1a_bytes(name.as_bytes()).max(1)
    }
}

/// Fingerprints the cost-table bits a program set was recorded under
/// (programs store op *counts*, so this is what `Δacc` recomputation
/// depends on). Mismatched fingerprints reject replay — the set is
/// ignored and regions charge live.
pub fn table_fingerprint(table: &CostTable) -> u64 {
    fingerprint_costs(table.as_dense())
}

/// [`table_fingerprint`] over an already-dense cost snapshot.
pub(crate) fn fingerprint_costs(costs: &[f64; OP_COUNT]) -> u64 {
    let head = [WIRE_VERSION as u64, OP_COUNT as u64];
    fnv1a_words(head.into_iter().chain(costs.iter().map(|c| c.to_bits())))
}

// ============================================== the compiled hot form ==

/// A program lowered for the replay VM: the precomputed total `Δacc`
/// for one cost table plus the sparse per-op count rows. Applying it is
/// one `f64` add plus one integer add per distinct op charged.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledProg {
    /// Total cycles the program charges under the compiled-for table.
    pub(crate) d_acc: f64,
    /// Sparse `(dense op index, count)` rows, ascending by op.
    pub(crate) rows: Box<[(u8, u64)]>,
}

impl CompiledProg {
    /// Lowers a recorded flat delta (the live-measured `Δacc` keeps
    /// replay bit-identical to the recording run by construction).
    pub(crate) fn from_flat(d_acc: f64, d_counts: &[u64; OP_COUNT]) -> CompiledProg {
        let rows: Vec<(u8, u64)> = d_counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u8, n))
            .collect();
        CompiledProg {
            d_acc,
            rows: rows.into_boxed_slice(),
        }
    }

    /// Expands the sparse rows back to a dense count array.
    pub(crate) fn dense_counts(&self) -> [u64; OP_COUNT] {
        let mut out = [0u64; OP_COUNT];
        for &(op, n) in self.rows.iter() {
            out[op as usize] = n;
        }
        out
    }

    /// Whether recomputing `Δacc` from the rows under `costs`
    /// reproduces the stored value bit-for-bit — the exactness gate: a
    /// program that fails it (fractional leak, > 2^53 overflow) must
    /// not be stored, the region stays live.
    pub(crate) fn recomputes_exactly(&self, costs: &[f64; OP_COUNT]) -> bool {
        match sum_rows(&self.rows, costs) {
            Some(sum) => sum.to_bits() == self.d_acc.to_bits(),
            None => false,
        }
    }
}

/// `Σ count · cost` over sparse rows; `None` when any partial leaves
/// the exact-integer range.
fn sum_rows(rows: &[(u8, u64)], costs: &[f64; OP_COUNT]) -> Option<f64> {
    let mut acc = 0.0f64;
    for &(op, n) in rows {
        if n as f64 > MAX_EXACT {
            return None;
        }
        // NaN-rejecting range check: `abs() <= MAX_EXACT` is false for
        // NaN, so a poisoned cost propagates to `None`, not into `acc`.
        let add = costs[op as usize] * n as f64;
        if add.is_nan() || add.abs() > MAX_EXACT {
            return None;
        }
        acc += add;
        if acc.is_nan() || acc.abs() > MAX_EXACT {
            return None;
        }
    }
    Some(acc)
}

/// Compiles a structured program for one cost table, resolving
/// [`Instr::Call`] references against `set`. `None` when the program is
/// malformed, references a missing callee, contains reserved
/// instructions, or leaves the exact-`f64` range — the caller falls
/// back to live charging.
pub(crate) fn compile(
    prog: &CostProgram,
    set: Option<&ProgramSet>,
    costs: &[f64; OP_COUNT],
) -> Option<CompiledProg> {
    let mut counts = [0u64; OP_COUNT];
    accumulate(prog.instrs(), set, 1, &mut counts, 0)?;
    let compiled = CompiledProg::from_flat(0.0, &counts);
    let d_acc = sum_rows(&compiled.rows, costs)?;
    Some(CompiledProg {
        d_acc,
        rows: compiled.rows,
    })
}

fn accumulate(
    instrs: &[Instr],
    set: Option<&ProgramSet>,
    mult: u64,
    counts: &mut [u64; OP_COUNT],
    depth: u32,
) -> Option<()> {
    let mut i = 0;
    while i < instrs.len() {
        match instrs[i] {
            Instr::ChargeRow { op, count } => {
                let idx = op.index();
                counts[idx] = counts[idx].checked_add(mult.checked_mul(count)?)?;
            }
            Instr::MaxReady { .. } => return None,
            Instr::Loop { n, body } => {
                let end = i.checked_add(1 + body as usize)?;
                if end > instrs.len() {
                    return None;
                }
                accumulate(
                    &instrs[i + 1..end],
                    set,
                    mult.checked_mul(n)?,
                    counts,
                    depth,
                )?;
                i = end;
                continue;
            }
            Instr::Call { site, key } => {
                if depth >= MAX_CALL_DEPTH {
                    return None;
                }
                let callee = set?.get(site, key)?;
                accumulate(callee.instrs(), set, mult, counts, depth + 1)?;
            }
            Instr::Branch { .. } => return None,
        }
        i += 1;
    }
    Some(())
}

// ============================================ recording the structure ==

/// A nested-region marker logged while an enclosing site records: the
/// callee's identity plus the count snapshot bracketing its applied
/// delta, so the builder can cut the enclosing flat delta into
/// `ChargeRow` gaps around a [`Instr::Call`].
#[derive(Debug, Clone)]
pub(crate) struct RecEvent {
    /// Callee stable site hash (never zero — anonymous callees are
    /// inlined into the gap instead of logged).
    pub(crate) site: u64,
    /// Callee full key.
    pub(crate) key: u64,
    /// Dense fast-slot counts just before the callee's delta applied.
    pub(crate) counts_before: [u64; OP_COUNT],
    /// The callee's dense count delta.
    pub(crate) d_counts: [u64; OP_COUNT],
}

/// Uniform-loop shape observed by `g_loop!` iteration marking: total
/// trips and the dense count delta of the first iteration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopShape {
    /// Total iterations executed.
    pub(crate) trips: u64,
    /// First iteration's count delta.
    pub(crate) body: [u64; OP_COUNT],
}

fn push_rows(out: &mut Vec<Instr>, counts: &[u64; OP_COUNT]) {
    for (i, &n) in counts.iter().enumerate() {
        if n > 0 {
            out.push(Instr::ChargeRow {
                op: ALL_OPS[i],
                count: n,
            });
        }
    }
}

fn sub_counts(a: &[u64; OP_COUNT], b: &[u64; OP_COUNT]) -> Option<[u64; OP_COUNT]> {
    let mut out = [0u64; OP_COUNT];
    for i in 0..OP_COUNT {
        out[i] = a[i].checked_sub(b[i])?;
    }
    Some(out)
}

fn add_counts(a: &[u64; OP_COUNT], b: &[u64; OP_COUNT]) -> Option<[u64; OP_COUNT]> {
    let mut out = [0u64; OP_COUNT];
    for i in 0..OP_COUNT {
        out[i] = a[i].checked_add(b[i])?;
    }
    Some(out)
}

/// Builds the structured program for a recorded region from its flat
/// count delta, the entry snapshot, the nested-region events logged
/// inside it and (for `g_loop!` sites) the observed loop shape. Falls
/// back to plain `ChargeRow`s whenever the richer structure does not
/// reproduce the flat delta exactly.
pub(crate) fn build_program(
    d_counts: &[u64; OP_COUNT],
    counts0: &[u64; OP_COUNT],
    events: &[RecEvent],
    loop_shape: Option<LoopShape>,
) -> CostProgram {
    if events.is_empty() {
        // Uniform-loop collapse: when every iteration charged exactly
        // the first iteration's rows, emit Loop { n, body }.
        if let Some(shape) = loop_shape {
            if shape.trips >= 2 && uniform(d_counts, &shape) {
                let mut instrs = Vec::new();
                let body_at = instrs.len();
                push_rows(&mut instrs, &shape.body);
                let body = (instrs.len() - body_at) as u32;
                instrs.insert(
                    body_at,
                    Instr::Loop {
                        n: shape.trips,
                        body,
                    },
                );
                return CostProgram::new(instrs);
            }
        }
        let mut instrs = Vec::new();
        push_rows(&mut instrs, d_counts);
        return CostProgram::new(instrs);
    }
    // Cut the flat delta into gaps around the nested calls.
    let mut instrs = Vec::new();
    let mut cursor = *counts0;
    let mut ok = true;
    for ev in events {
        match sub_counts(&ev.counts_before, &cursor) {
            Some(gap) => {
                push_rows(&mut instrs, &gap);
                instrs.push(Instr::Call {
                    site: ev.site,
                    key: ev.key,
                });
                cursor = match add_counts(&ev.counts_before, &ev.d_counts) {
                    Some(c) => c,
                    None => {
                        ok = false;
                        break;
                    }
                };
            }
            None => {
                ok = false;
                break;
            }
        }
    }
    if ok {
        if let (Some(end), Some(total)) = (add_counts(counts0, d_counts), Some(cursor)) {
            match sub_counts(&end, &total) {
                Some(tail) => push_rows(&mut instrs, &tail),
                None => ok = false,
            }
        } else {
            ok = false;
        }
    }
    if !ok {
        let mut flat = Vec::new();
        push_rows(&mut flat, d_counts);
        return CostProgram::new(flat);
    }
    CostProgram::new(instrs)
}

fn uniform(d_counts: &[u64; OP_COUNT], shape: &LoopShape) -> bool {
    (0..OP_COUNT).all(|i| {
        shape.body[i]
            .checked_mul(shape.trips)
            .is_some_and(|total| total == d_counts[i])
    })
}

// ======================================================= ProgramSet ==

/// A serializable set of cost programs keyed by
/// `(stable site hash, key)`, fingerprinted by the cost table they were
/// recorded under. The unit of cross-process / cross-worker sharing:
/// `scperf-serve` publishes one set for all workers, `scperf-dse` can
/// write it to disk and warm-start a later sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramSet {
    table_fp: u64,
    entries: HashMap<(u64, u64), CostProgram, BuildFnv>,
}

/// Why a serialized program set failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgDecodeError {
    /// The buffer does not start with the `SCPG` magic.
    BadMagic,
    /// Unknown wire-format version.
    BadVersion(u8),
    /// The buffer ended mid-record.
    Truncated,
    /// Unknown instruction tag.
    BadInstr(u8),
    /// Structurally invalid record (op index out of range, arm
    /// overrun, bytes after the checksum, …).
    BadStructure,
    /// The closing checksum does not match the bytes before it.
    BadChecksum,
}

impl fmt::Display for ProgDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgDecodeError::BadMagic => write!(f, "not a program set (bad magic)"),
            ProgDecodeError::BadVersion(v) => write!(f, "unsupported program-set version {v}"),
            ProgDecodeError::Truncated => write!(f, "truncated program set"),
            ProgDecodeError::BadInstr(t) => write!(f, "unknown instruction tag {t}"),
            ProgDecodeError::BadStructure => write!(f, "malformed program structure"),
            ProgDecodeError::BadChecksum => write!(f, "program set checksum mismatch"),
        }
    }
}

impl std::error::Error for ProgDecodeError {}

const WIRE_MAGIC: [u8; 4] = *b"SCPG";
const WIRE_VERSION: u8 = 2;

const TAG_CHARGE_ROW: u8 = 1;
const TAG_MAX_READY: u8 = 2;
const TAG_LOOP: u8 = 3;
const TAG_CALL: u8 = 4;
const TAG_BRANCH: u8 = 5;

impl ProgramSet {
    /// Creates an empty set for programs recorded under the table with
    /// the given [`table_fingerprint`].
    pub fn new(table_fp: u64) -> ProgramSet {
        ProgramSet {
            table_fp,
            entries: HashMap::default(),
        }
    }

    /// The fingerprint of the cost table the programs were recorded
    /// under.
    pub fn table_fp(&self) -> u64 {
        self.table_fp
    }

    /// Number of stored programs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set holds no programs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The program of `(site, key)`, if present.
    pub fn get(&self, site: u64, key: u64) -> Option<&CostProgram> {
        self.entries.get(&(site, key))
    }

    /// Stores a program (first write wins — racing recorders recorded
    /// the same deterministic program).
    pub fn insert(&mut self, site: u64, key: u64, prog: CostProgram) {
        self.entries.entry((site, key)).or_insert(prog);
    }

    /// Merges `other`'s programs in (first write wins). No-op when the
    /// fingerprints disagree — programs from a different table must not
    /// mix. Returns how many programs were added.
    pub fn merge(&mut self, other: &ProgramSet) -> usize {
        if other.table_fp != self.table_fp {
            return 0;
        }
        let before = self.entries.len();
        for (k, v) in &other.entries {
            self.entries.entry(*k).or_insert_with(|| v.clone());
        }
        self.entries.len() - before
    }

    /// Iterates `(site, key, program)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, &CostProgram)> {
        self.entries.iter().map(|(&(s, k), p)| (s, k, p))
    }

    /// Encodes the set into the compact byte format:
    /// `SCPG | version | table_fp | site count`, then per site its
    /// stable hash and arm count, then per arm a [`Instr::Branch`]
    /// header (`key`, instruction count) followed by the arm's
    /// instructions, and last a `u64` FNV-1a checksum of every byte
    /// before it. Output is deterministic (sites and keys sorted).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut by_site: Vec<(u64, Vec<(u64, &CostProgram)>)> = Vec::new();
        {
            let mut sites: Vec<u64> = self.entries.keys().map(|&(s, _)| s).collect();
            sites.sort_unstable();
            sites.dedup();
            for site in sites {
                let mut arms: Vec<(u64, &CostProgram)> = self
                    .entries
                    .iter()
                    .filter(|(&(s, _), _)| s == site)
                    .map(|(&(_, k), p)| (k, p))
                    .collect();
                arms.sort_unstable_by_key(|&(k, _)| k);
                by_site.push((site, arms));
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION);
        out.extend_from_slice(&self.table_fp.to_le_bytes());
        out.extend_from_slice(&(by_site.len() as u32).to_le_bytes());
        for (site, arms) in by_site {
            out.extend_from_slice(&site.to_le_bytes());
            out.extend_from_slice(&(arms.len() as u32).to_le_bytes());
            for (key, prog) in arms {
                encode_instr(
                    &mut out,
                    Instr::Branch {
                        key,
                        len: prog.len() as u32,
                    },
                );
                for &instr in prog.instrs() {
                    encode_instr(&mut out, instr);
                }
            }
        }
        let checksum = fnv1a_bytes(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a set written by [`ProgramSet::to_bytes`]. Fails closed:
    /// a changed byte fails the checksum, and bytes after it are
    /// rejected.
    pub fn from_bytes(bytes: &[u8]) -> Result<ProgramSet, ProgDecodeError> {
        let mut r = Reader { buf: bytes, at: 0 };
        if r.take(4)? != WIRE_MAGIC {
            return Err(ProgDecodeError::BadMagic);
        }
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(ProgDecodeError::BadVersion(version));
        }
        let table_fp = r.u64()?;
        let mut set = ProgramSet::new(table_fp);
        let nsites = r.u32()?;
        for _ in 0..nsites {
            let site = r.u64()?;
            let narms = r.u32()?;
            for _ in 0..narms {
                let (key, len) = match decode_instr(&mut r)? {
                    Instr::Branch { key, len } => (key, len),
                    _ => return Err(ProgDecodeError::BadStructure),
                };
                let mut instrs = Vec::with_capacity(len.min(1024) as usize);
                for _ in 0..len {
                    let instr = decode_instr(&mut r)?;
                    if matches!(instr, Instr::Branch { .. }) {
                        return Err(ProgDecodeError::BadStructure);
                    }
                    instrs.push(instr);
                }
                set.insert(site, key, CostProgram::new(instrs));
            }
        }
        let body = r.at;
        if r.u64()? != fnv1a_bytes(&bytes[..body]) {
            return Err(ProgDecodeError::BadChecksum);
        }
        if r.at != bytes.len() {
            return Err(ProgDecodeError::BadStructure);
        }
        Ok(set)
    }
}

fn encode_instr(out: &mut Vec<u8>, instr: Instr) {
    match instr {
        Instr::ChargeRow { op, count } => {
            out.push(TAG_CHARGE_ROW);
            out.push(op.index() as u8);
            out.extend_from_slice(&count.to_le_bytes());
        }
        Instr::MaxReady { bits } => {
            out.push(TAG_MAX_READY);
            out.extend_from_slice(&bits.to_le_bytes());
        }
        Instr::Loop { n, body } => {
            out.push(TAG_LOOP);
            out.extend_from_slice(&n.to_le_bytes());
            out.extend_from_slice(&body.to_le_bytes());
        }
        Instr::Call { site, key } => {
            out.push(TAG_CALL);
            out.extend_from_slice(&site.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
        }
        Instr::Branch { key, len } => {
            out.push(TAG_BRANCH);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProgDecodeError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProgDecodeError::Truncated)?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProgDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProgDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProgDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn decode_instr(r: &mut Reader<'_>) -> Result<Instr, ProgDecodeError> {
    let tag = r.u8()?;
    match tag {
        TAG_CHARGE_ROW => {
            let op_idx = r.u8()? as usize;
            let count = r.u64()?;
            let op = *ALL_OPS.get(op_idx).ok_or(ProgDecodeError::BadStructure)?;
            Ok(Instr::ChargeRow { op, count })
        }
        TAG_MAX_READY => Ok(Instr::MaxReady { bits: r.u64()? }),
        TAG_LOOP => {
            let n = r.u64()?;
            let body = r.u32()?;
            Ok(Instr::Loop { n, body })
        }
        TAG_CALL => {
            let site = r.u64()?;
            let key = r.u64()?;
            Ok(Instr::Call { site, key })
        }
        TAG_BRANCH => {
            let key = r.u64()?;
            let len = r.u32()?;
            Ok(Instr::Branch { key, len })
        }
        other => Err(ProgDecodeError::BadInstr(other)),
    }
}

// ======================================================== ProgStore ==

/// Per-site slice of the program index: the keys seen at one site,
/// kept sorted, paired with their slots in `compiled`. Lookup is a
/// binary search over a contiguous `u64` array — cheaper than hashing
/// for the handful of keys most sites carry, and still logarithmic for
/// high-cardinality sites (data-dependent keys such as the vocoder's
/// lag-clamp can compile hundreds of variants).
#[derive(Default)]
struct SiteIndex {
    keys: Vec<u64>,
    idxs: Vec<u32>,
}

/// Per-process program store: the fast `(numeric site id, key) → index`
/// map consulted on every region entry, the compiled hot forms, the
/// structured sources of programs recorded *by this process* (for
/// harvest), and the optional frozen warm set consulted on local
/// misses.
///
/// The hot map is a dense `Vec` indexed by the numeric site id (site
/// ids come from a global counter and are assigned lazily, so they stay
/// small) — the replay hit path is one bounds check plus a short key
/// scan, no hashing.
pub(crate) struct ProgStore {
    sites: Vec<SiteIndex>,
    compiled: Vec<CompiledProg>,
    fresh: Vec<(u64, u64, CostProgram)>,
    pub(crate) warm: Option<Arc<ProgramSet>>,
    /// Local misses satisfied by compiling a warm-set program.
    pub(crate) warm_hits: u64,
    /// Warm sets ignored for a fingerprint mismatch (counted once per
    /// install).
    pub(crate) rejects: u64,
}

impl ProgStore {
    /// Empty store with no warm set.
    pub(crate) fn new() -> ProgStore {
        ProgStore::with_warm(None)
    }

    /// Empty store that consults `warm` on local misses.
    pub(crate) fn with_warm(warm: Option<Arc<ProgramSet>>) -> ProgStore {
        ProgStore {
            sites: Vec::new(),
            compiled: Vec::new(),
            fresh: Vec::new(),
            warm,
            warm_hits: 0,
            rejects: 0,
        }
    }

    /// Index of the compiled program for `(site, key)`, if present.
    #[inline]
    pub(crate) fn lookup(&self, site: u32, key: u64) -> Option<u32> {
        let s = self.sites.get(site as usize)?;
        s.keys.binary_search(&key).ok().map(|i| s.idxs[i])
    }

    /// Records `(site, key) → idx` in the dense index, keeping the
    /// per-site key array sorted. Inserts are rare (one per compiled
    /// variant); lookups dominate.
    fn index_insert(&mut self, site: u32, key: u64, idx: u32) {
        if self.sites.len() <= site as usize {
            self.sites
                .resize_with(site as usize + 1, SiteIndex::default);
        }
        let s = &mut self.sites[site as usize];
        let at = s.keys.partition_point(|&k| k < key);
        s.keys.insert(at, key);
        s.idxs.insert(at, idx);
    }

    /// The compiled program at `idx`.
    #[inline]
    pub(crate) fn compiled(&self, idx: u32) -> &CompiledProg {
        &self.compiled[idx as usize]
    }

    /// Satisfies a local miss from the warm set: compiles the program
    /// for this process's table and installs it locally. `None` when no
    /// warm set is attached, the site is anonymous, or the program does
    /// not compile (the region then records afresh).
    pub(crate) fn warm_fetch(
        &mut self,
        site: u32,
        stable: u64,
        key: u64,
        costs: &[f64; OP_COUNT],
    ) -> Option<u32> {
        if stable == 0 {
            return None;
        }
        let warm = self.warm.as_ref()?;
        let prog = warm.get(stable, key)?;
        let compiled = compile(prog, Some(warm), costs)?;
        let idx = self.compiled.len() as u32;
        self.compiled.push(compiled);
        self.index_insert(site, key, idx);
        self.warm_hits += 1;
        Some(idx)
    }

    /// Installs a freshly recorded program. Named sites are queued for
    /// harvest into the session's shared set.
    pub(crate) fn insert_recorded(
        &mut self,
        site: u32,
        stable: u64,
        key: u64,
        prog: CostProgram,
        compiled: CompiledProg,
    ) {
        let idx = self.compiled.len() as u32;
        self.compiled.push(compiled);
        self.index_insert(site, key, idx);
        if stable != 0 {
            self.fresh.push((stable, key, prog));
        }
    }

    /// Number of locally installed programs.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.compiled.len()
    }

    /// Whether no program is installed.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.compiled.is_empty()
    }

    /// Drains the programs recorded by this process.
    pub(crate) fn take_fresh(&mut self) -> Vec<(u64, u64, CostProgram)> {
        std::mem::take(&mut self.fresh)
    }
}

impl Default for ProgStore {
    fn default() -> ProgStore {
        ProgStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Op;

    fn table() -> CostTable {
        CostTable::from_pairs([(Op::Add, 2.0), (Op::Mul, 5.0), (Op::Branch, 1.0)])
    }

    #[test]
    fn compile_charges_rows_and_loops() {
        let prog = CostProgram::new(vec![
            Instr::ChargeRow {
                op: Op::Add,
                count: 3,
            },
            Instr::Loop { n: 4, body: 2 },
            Instr::ChargeRow {
                op: Op::Mul,
                count: 2,
            },
            Instr::ChargeRow {
                op: Op::Branch,
                count: 1,
            },
            Instr::ChargeRow {
                op: Op::Add,
                count: 1,
            },
        ]);
        let c = compile(&prog, None, table().as_dense()).expect("compiles");
        let dense = c.dense_counts();
        assert_eq!(dense[Op::Add.index()], 4);
        assert_eq!(dense[Op::Mul.index()], 8);
        assert_eq!(dense[Op::Branch.index()], 4);
        assert_eq!(c.d_acc, 4.0 * 2.0 + 8.0 * 5.0 + 4.0 * 1.0);
    }

    #[test]
    fn compile_resolves_calls_and_rejects_cycles() {
        let mut set = ProgramSet::new(7);
        set.insert(
            100,
            0,
            CostProgram::new(vec![Instr::ChargeRow {
                op: Op::Add,
                count: 2,
            }]),
        );
        let caller = CostProgram::new(vec![Instr::Call { site: 100, key: 0 }]);
        let c = compile(&caller, Some(&set), table().as_dense()).expect("resolves");
        assert_eq!(c.dense_counts()[Op::Add.index()], 2);

        let mut cyclic = ProgramSet::new(7);
        cyclic.insert(
            1,
            0,
            CostProgram::new(vec![Instr::Call { site: 1, key: 0 }]),
        );
        let looped = CostProgram::new(vec![Instr::Call { site: 1, key: 0 }]);
        assert!(compile(&looped, Some(&cyclic), table().as_dense()).is_none());
    }

    #[test]
    fn compile_rejects_reserved_and_missing() {
        let max_ready = CostProgram::new(vec![Instr::MaxReady { bits: 0 }]);
        assert!(compile(&max_ready, None, table().as_dense()).is_none());
        let missing = CostProgram::new(vec![Instr::Call { site: 9, key: 9 }]);
        assert!(compile(&missing, None, table().as_dense()).is_none());
        let branch = CostProgram::new(vec![Instr::Branch { key: 0, len: 0 }]);
        assert!(compile(&branch, None, table().as_dense()).is_none());
    }

    #[test]
    fn set_round_trips_through_bytes() {
        let mut set = ProgramSet::new(table_fingerprint(&table()));
        set.insert(
            11,
            0,
            CostProgram::new(vec![
                Instr::Loop { n: 6, body: 1 },
                Instr::ChargeRow {
                    op: Op::Mul,
                    count: 1,
                },
            ]),
        );
        set.insert(
            11,
            3,
            CostProgram::new(vec![Instr::Call { site: 12, key: 0 }]),
        );
        set.insert(
            12,
            0,
            CostProgram::new(vec![Instr::ChargeRow {
                op: Op::Add,
                count: 4,
            }]),
        );
        let bytes = set.to_bytes();
        let back = ProgramSet::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, set);
        // Deterministic encoding.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            ProgramSet::from_bytes(b"nope"),
            Err(ProgDecodeError::BadMagic)
        );
        let mut bytes = ProgramSet::new(1).to_bytes();
        bytes[4] = 99;
        assert_eq!(
            ProgramSet::from_bytes(&bytes),
            Err(ProgDecodeError::BadVersion(99))
        );
        let good = {
            let mut s = ProgramSet::new(1);
            s.insert(
                1,
                0,
                CostProgram::new(vec![Instr::ChargeRow {
                    op: Op::Add,
                    count: 1,
                }]),
            );
            s.to_bytes()
        };
        assert_eq!(
            ProgramSet::from_bytes(&good[..good.len() - 1]),
            Err(ProgDecodeError::Truncated)
        );
        let mut flipped = good.clone();
        flipped[good.len() - 9] ^= 1;
        assert_eq!(
            ProgramSet::from_bytes(&flipped),
            Err(ProgDecodeError::BadChecksum)
        );
        let mut trailing = good;
        trailing.push(0);
        assert_eq!(
            ProgramSet::from_bytes(&trailing),
            Err(ProgDecodeError::BadStructure)
        );
    }

    #[test]
    fn merge_respects_fingerprints() {
        let mut a = ProgramSet::new(1);
        let mut b = ProgramSet::new(1);
        let mut c = ProgramSet::new(2);
        b.insert(5, 0, CostProgram::default());
        c.insert(6, 0, CostProgram::default());
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.merge(&c), 0, "mismatched fingerprint must not merge");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn build_program_collapses_uniform_loops() {
        let mut d = [0u64; OP_COUNT];
        d[Op::Add.index()] = 12;
        d[Op::Branch.index()] = 6;
        let mut body = [0u64; OP_COUNT];
        body[Op::Add.index()] = 2;
        body[Op::Branch.index()] = 1;
        let prog = build_program(
            &d,
            &[0u64; OP_COUNT],
            &[],
            Some(LoopShape { trips: 6, body }),
        );
        assert!(matches!(prog.instrs()[0], Instr::Loop { n: 6, .. }));
        let c = compile(&prog, None, table().as_dense()).expect("compiles");
        assert_eq!(c.dense_counts(), d);
    }

    #[test]
    fn build_program_falls_back_flat_on_ragged_loops() {
        let mut d = [0u64; OP_COUNT];
        d[Op::Add.index()] = 11; // not 6 x 2: last iteration broke early
        let mut body = [0u64; OP_COUNT];
        body[Op::Add.index()] = 2;
        let prog = build_program(
            &d,
            &[0u64; OP_COUNT],
            &[],
            Some(LoopShape { trips: 6, body }),
        );
        assert!(prog
            .instrs()
            .iter()
            .all(|i| matches!(i, Instr::ChargeRow { .. })));
        let c = compile(&prog, None, table().as_dense()).expect("compiles");
        assert_eq!(c.dense_counts(), d);
    }

    #[test]
    fn build_program_cuts_gaps_around_calls() {
        let mut counts0 = [5u64; OP_COUNT];
        counts0[Op::Mul.index()] = 0;
        let mut before = counts0;
        before[Op::Add.index()] += 3; // gap: 3 Adds before the call
        let mut callee = [0u64; OP_COUNT];
        callee[Op::Mul.index()] = 7;
        let ev = RecEvent {
            site: 42,
            key: 9,
            counts_before: before,
            d_counts: callee,
        };
        // total delta: 3 Adds + callee's 7 Muls + 2 trailing Branches.
        let mut d = [0u64; OP_COUNT];
        d[Op::Add.index()] = 3;
        d[Op::Mul.index()] = 7;
        d[Op::Branch.index()] = 2;
        let prog = build_program(&d, &counts0, &[ev], None);
        assert!(prog
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::Call { site: 42, key: 9 })));
        // Resolving the call against a set reproduces the flat delta.
        let mut set = ProgramSet::new(1);
        set.insert(
            42,
            9,
            CostProgram::new(vec![Instr::ChargeRow {
                op: Op::Mul,
                count: 7,
            }]),
        );
        let c = compile(&prog, Some(&set), table().as_dense()).expect("compiles");
        assert_eq!(c.dense_counts(), d);
    }

    #[test]
    fn exactness_gate_rejects_fractional_and_huge() {
        let mut d = [0u64; OP_COUNT];
        d[Op::Add.index()] = 2;
        let frac = CompiledProg::from_flat(3.0, &d);
        let mut costs = [0.0; OP_COUNT];
        costs[Op::Add.index()] = 1.5;
        assert!(frac.recomputes_exactly(&costs), "1.5 * 2 = 3 is exact");
        let wrong = CompiledProg::from_flat(4.0, &d);
        assert!(!wrong.recomputes_exactly(&costs));
        let mut huge = [0u64; OP_COUNT];
        huge[Op::Add.index()] = 1 << 60;
        let over = CompiledProg::from_flat(0.0, &huge);
        assert!(!over.recomputes_exactly(&costs));
    }

    #[test]
    fn stable_hash_is_zero_only_for_anonymous() {
        assert_eq!(stable_site_hash(""), 0);
        assert_ne!(stable_site_hash("a.rs:1:1"), 0);
        assert_ne!(stable_site_hash("a.rs:1:1"), stable_site_hash("a.rs:1:2"));
    }

    #[test]
    fn table_fingerprint_tracks_cost_bits() {
        let a = table_fingerprint(&table());
        assert_eq!(a, table_fingerprint(&table()));
        assert_ne!(
            a,
            table_fingerprint(&CostTable::from_pairs([(Op::Add, 3.0)]))
        );
    }
}
