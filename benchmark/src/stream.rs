//! The request stream: generated from `--seed` before anything is timed,
//! then replayed from memory. The program under test sees only these
//! inputs — key bytes, value bytes, operation — never the seed.

use std::time::Instant;

use cf_kv::store::KvStore;
use cf_sim::rng::SplitMix64;
use cf_workloads::{key_string, GoogleSizeDist, TwitterConfig, TwitterOp, TwitterTrace};

use crate::spec::{Shape, WorkloadSpec};

/// Length of every key (`cf_workloads::key_string`).
pub const KEY_BYTES: usize = 30;
/// Most keys any workload puts in one request.
pub const MAX_KEYS_PER_REQ: usize = 8;
/// Requests in a generated stream; replay wraps around.
pub const STREAM_REQUESTS: usize = 1 << 18;
/// Most value bytes one multi-key reply may carry, so that the reply fits
/// a 9,000-byte frame with its headers (the paper resamples such lists).
const BATCH_VALUE_BUDGET: u32 = 8_192;
/// PUT values are windows into one ramp buffer; request `i` starts at
/// offset `i % RAMP_WINDOWS`, so consecutive PUTs to a key differ.
const RAMP_WINDOWS: usize = 251;
/// Largest value any workload stores.
const MAX_VALUE_BYTES: usize = 8_192;

/// The key set of a workload: key bytes and the size each key's value has.
pub struct Keys {
    bytes: Vec<[u8; KEY_BYTES]>,
    val_len: Vec<u32>,
}

impl Keys {
    /// Builds the key table for `spec` (independent of the seed: sizes are
    /// functions of the key id, so the store's contents are too).
    pub fn build(spec: &WorkloadSpec) -> Keys {
        let n = spec.num_keys as usize;
        let mut bytes = Vec::with_capacity(n);
        let mut val_len = Vec::with_capacity(n);
        for id in 0..u64::from(spec.num_keys) {
            let key = key_string(id);
            bytes.push(
                key.as_bytes()
                    .try_into()
                    .expect("key_string yields 30 bytes"),
            );
            val_len.push(match spec.shape {
                Shape::Const { value_bytes, .. } => value_bytes,
                Shape::Google => GoogleSizeDist::object_for_key(id, 1)[0] as u32,
                Shape::Twitter => TwitterTrace::value_size(id) as u32,
            });
        }
        Keys { bytes, val_len }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Key bytes of key `id`.
    #[inline]
    pub fn key(&self, id: u32) -> &[u8] {
        &self.bytes[id as usize]
    }

    /// Value size of key `id`.
    #[inline]
    pub fn val_len(&self, id: u32) -> u32 {
        self.val_len[id as usize]
    }
}

/// A generated request stream. Request `i` reads keys
/// `key_ids[i * keys_per_req..][..keys_per_req]`; it is a PUT of
/// `put_len[i]` bytes to its one key when that is non-zero (no workload
/// stores empty values), else a GET.
pub struct Stream {
    /// Keys per request.
    pub keys_per_req: usize,
    /// Key ids, `keys_per_req` per request.
    pub key_ids: Vec<u32>,
    /// PUT value length per request; 0 marks a GET.
    pub put_len: Vec<u32>,
    /// Host seconds spent generating (reported per request; shows the
    /// generator runs outside the timed window).
    pub gen_seconds: f64,
}

impl Stream {
    /// Generates `n` requests of `spec` from `seed`.
    pub fn generate(spec: &WorkloadSpec, keys: &Keys, seed: u64, n: usize) -> Stream {
        let t0 = Instant::now();
        let k = spec.keys_per_req;
        assert!((1..=MAX_KEYS_PER_REQ).contains(&k));
        let mut key_ids = Vec::with_capacity(n * k);
        let mut put_len = Vec::with_capacity(n);
        let mut rng = SplitMix64::new(seed);
        let bound = u64::from(spec.num_keys);
        match spec.shape {
            Shape::Const { value_bytes, put } => {
                for _ in 0..n * k {
                    key_ids.push(rng.next_bounded(bound) as u32);
                }
                put_len.resize(n, if put { value_bytes } else { 0 });
            }
            Shape::Google => {
                for _ in 0..n {
                    loop {
                        let ids: [u32; MAX_KEYS_PER_REQ] =
                            std::array::from_fn(|_| rng.next_bounded(bound) as u32);
                        let total: u32 = ids[..k].iter().map(|&id| keys.val_len(id)).sum();
                        if total <= BATCH_VALUE_BUDGET {
                            key_ids.extend_from_slice(&ids[..k]);
                            break;
                        }
                    }
                }
                put_len.resize(n, 0);
            }
            Shape::Twitter => {
                let config = TwitterConfig {
                    num_keys: bound,
                    ..TwitterConfig::default()
                };
                let mut trace = TwitterTrace::new(config, seed);
                for _ in 0..n {
                    match trace.next() {
                        TwitterOp::Get { key } => {
                            key_ids.push(key as u32);
                            put_len.push(0);
                        }
                        TwitterOp::Put { key, size } => {
                            key_ids.push(key as u32);
                            put_len.push(size as u32);
                        }
                    }
                }
            }
        }
        Stream {
            keys_per_req: k,
            key_ids,
            put_len,
            gen_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Requests in the stream.
    pub fn len(&self) -> usize {
        self.put_len.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.put_len.is_empty()
    }

    /// Key ids of request `i`.
    #[inline]
    pub fn keys_of(&self, i: usize) -> &[u32] {
        &self.key_ids[i * self.keys_per_req..(i + 1) * self.keys_per_req]
    }

    /// FNV-1a over every key id and PUT length: equal for equal seeds.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in self.key_ids.iter().chain(&self.put_len) {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The realised shape of the stream: mean bytes of the values a request
    /// moves, share of PUTs, and share of requests moving at least one
    /// value of 512 B or more.
    pub fn shape(&self, keys: &Keys) -> StreamShape {
        let n = self.len() as f64;
        let mut value_bytes = 0u64;
        let mut puts = 0u64;
        let mut ge_512 = 0u64;
        for i in 0..self.len() {
            let sizes = self.keys_of(i).iter().map(|&id| keys.val_len(id));
            value_bytes += u64::from(sizes.clone().sum::<u32>());
            ge_512 += u64::from(sizes.clone().any(|s| s >= 512));
            puts += u64::from(self.put_len[i] != 0);
        }
        StreamShape {
            mean_value_bytes: value_bytes as f64 / n,
            put_fraction: puts as f64 / n,
            frac_ge_512: ge_512 as f64 / n,
        }
    }
}

/// See [`Stream::shape`].
#[derive(Clone, Copy, Debug)]
pub struct StreamShape {
    /// Mean value bytes moved per request (reply values or the PUT value).
    pub mean_value_bytes: f64,
    /// Share of requests that are PUTs.
    pub put_fraction: f64,
    /// Share of requests moving at least one value of 512 B or more.
    pub frac_ge_512: f64,
}

/// Everything a workload replays: spec, keys, stream and the PUT ramp.
pub struct Workload {
    /// The pinned definition.
    pub spec: &'static WorkloadSpec,
    /// Key table.
    pub keys: Keys,
    /// Request stream.
    pub stream: Stream,
    ramp: Vec<u8>,
}

impl Workload {
    /// Generates the inputs of `spec` from `seed`.
    pub fn generate(spec: &'static WorkloadSpec, seed: u64) -> Workload {
        let keys = Keys::build(spec);
        let stream = Stream::generate(spec, &keys, seed, STREAM_REQUESTS);
        let ramp = (0..MAX_VALUE_BYTES + RAMP_WINDOWS)
            .map(|j| (j as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3])
            .collect();
        Workload {
            spec,
            keys,
            stream,
            ramp,
        }
    }

    /// The key bytes of request `i`, in a fixed array, and how many of its
    /// slots are keys.
    #[inline]
    pub fn key_refs(&self, i: usize) -> ([&[u8]; MAX_KEYS_PER_REQ], usize) {
        let ids = self.stream.keys_of(i);
        let mut keys: [&[u8]; MAX_KEYS_PER_REQ] = [&[]; MAX_KEYS_PER_REQ];
        for (slot, &id) in keys.iter_mut().zip(ids) {
            *slot = self.keys.key(id);
        }
        (keys, ids.len())
    }

    /// The value request `i` of the stream PUTs (`len` bytes).
    #[inline]
    pub fn put_value(&self, i: usize, len: u32) -> &[u8] {
        let start = i % RAMP_WINDOWS;
        &self.ramp[start..start + len as usize]
    }

    /// Whether `got` is what a GET of key `id` must return, given the
    /// stream index of the last PUT to it (`None`: still the preloaded
    /// fill).
    pub fn value_matches(&self, id: u32, last_put: Option<usize>, got: &[u8]) -> bool {
        let len = self.keys.val_len(id);
        match last_put {
            Some(i) => got == self.put_value(i, len),
            None => {
                let fill = KvStore::expected_fill(self.keys.key(id), 0);
                got.len() == len as usize && got.iter().all(|&b| b == fill)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};

    #[test]
    fn same_seed_same_stream_and_other_seed_another() {
        for spec in &WORKLOADS {
            let keys = Keys::build(spec);
            let a = Stream::generate(spec, &keys, 7, 4_096);
            let b = Stream::generate(spec, &keys, 7, 4_096);
            let c = Stream::generate(spec, &keys, 8, 4_096);
            assert_eq!(a.hash(), b.hash(), "{}: same seed", spec.name);
            assert_ne!(a.hash(), c.hash(), "{}: other seed", spec.name);
            assert_eq!(a.len(), 4_096);
            assert_eq!(a.key_ids.len(), 4_096 * spec.keys_per_req);
        }
    }

    #[test]
    fn twitter_mix_has_the_papers_shape() {
        let spec = workload("twitter_mix").unwrap();
        let keys = Keys::build(spec);
        let shape = Stream::generate(spec, &keys, 3, 100_000).shape(&keys);
        assert!(
            (0.075..=0.085).contains(&shape.put_fraction),
            "8 % ± 0.5 PUTs, got {}",
            shape.put_fraction
        );
        assert!(
            (0.30..=0.34).contains(&shape.frac_ge_512),
            "32 % ± 2 of requests move ≥ 512 B, got {}",
            shape.frac_ge_512
        );
    }

    #[test]
    fn constant_workloads_sit_on_their_side_of_the_threshold() {
        for (name, ge_512) in [("get_small", 0.0), ("get_large", 1.0), ("put_mid", 1.0)] {
            let spec = workload(name).unwrap();
            let keys = Keys::build(spec);
            let shape = Stream::generate(spec, &keys, 1, 2_048).shape(&keys);
            assert_eq!(shape.frac_ge_512, ge_512, "{name}");
        }
    }

    #[test]
    fn batch_replies_fit_a_frame() {
        let spec = workload("get_batch").unwrap();
        let keys = Keys::build(spec);
        let s = Stream::generate(spec, &keys, 5, 8_192);
        for i in 0..s.len() {
            let total: u32 = s.keys_of(i).iter().map(|&id| keys.val_len(id)).sum();
            assert!(total <= BATCH_VALUE_BUDGET);
        }
    }

    #[test]
    fn put_values_differ_between_consecutive_requests() {
        let w = Workload::generate(workload("put_mid").unwrap(), 1);
        assert_ne!(w.put_value(0, 1_024), w.put_value(1, 1_024));
        assert!(w.value_matches(0, Some(5), w.put_value(5, 1_024)));
        assert!(!w.value_matches(0, Some(5), w.put_value(6, 1_024)));
        let fill = KvStore::expected_fill(w.keys.key(0), 0);
        assert!(w.value_matches(0, None, &vec![fill; 1_024]));
        assert!(!w.value_matches(0, None, &vec![fill; 1_023]));
    }
}
