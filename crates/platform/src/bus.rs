//! The SoC bus and its peripherals.
//!
//! The attached hardware "expects to be connected to an SoC bus" and is
//! clocked by the synchronization device's generated cycles. Peripherals
//! receive the current generated-cycle count with every transaction, so
//! time-dependent behaviour (timer expiry, UART byte timestamps) is
//! defined in emulated SoC time — which is exactly what makes device
//! drivers validated on this platform cycle-accurate.
//!
//! Every peripheral is *snapshottable*: [`SocPeripheral::save_state`] /
//! [`SocPeripheral::restore_state`] serialize the device's mutable state
//! to bytes, and [`SocBus::save_state`] bundles the whole bus (devices
//! plus the transaction counter) into a [`SocBusState`]. Session
//! snapshots carry that image, so `snapshot → run → restore → run`
//! replays device behaviour bit-identically — no double-logged UART
//! bytes, no stale timer epochs.
//!
//! For multi-core sharding every shard owns a *private* clone of the
//! device population behind its own [`SharedSocBus`] handle, and a
//! [`ShardArbiter`] exchanges [`SocBusState`] images at every epoch
//! barrier: per-shard states are merged in fixed shard order
//! ([`SocPeripheral::merge_state`]) into one canonical image, which is
//! then broadcast back into every shard's bus. Because shards never
//! touch each other's devices *inside* an epoch, the protocol is
//! schedule-independent — the sequential and the pooled shard
//! schedulers produce bit-identical runs — and every
//! type in the exchange is `Send`, so shards can run on worker threads.

use cabt_isa::codec::{ByteReader, ByteWriter, CodecError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A device on the SoC bus. `Send` is a supertrait: buses cross thread
/// boundaries when shards run on worker threads, so devices must not
/// hold thread-bound state.
pub trait SocPeripheral: Send {
    /// `(first, last_exclusive)` address range served by this device.
    fn range(&self) -> (u32, u32);
    /// Handles a read at SoC time `soc_cycle`.
    fn read(&mut self, soc_cycle: u64, addr: u32, size: u32) -> u32;
    /// Handles a write at SoC time `soc_cycle`.
    fn write(&mut self, soc_cycle: u64, addr: u32, size: u32, value: u32);
    /// Transmit log, for peripherals that record output (UARTs).
    fn transmit_log(&self) -> Vec<(u64, u8)> {
        Vec::new()
    }
    /// Serializes the device's mutable state. The encoding is private to
    /// the device — only [`SocPeripheral::restore_state`] of the same
    /// device type needs to understand it. Stateless devices keep the
    /// default (empty) image.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }
    /// Restores state produced by [`SocPeripheral::save_state`] on the
    /// same device type. The whole image is decoded before anything
    /// changes, so a short, over-long or corrupt image leaves the device
    /// as it was. The default pairs with the default `save_state`: only
    /// the empty image restores.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if `state` is not a well-formed image.
    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        ByteReader::new(state).finish()
    }
    /// Deterministically merges per-shard state images into one
    /// canonical image — the epoch-barrier reduction of a sharded run.
    /// `base` is the canonical image every shard started the epoch
    /// from; `shards` are the per-shard images at the barrier, in shard
    /// order. The result must depend only on the inputs (never on host
    /// scheduling), and merging a single unchanged shard must return
    /// `base` bit-identically.
    ///
    /// The default is last-writer-wins at shard granularity: the
    /// highest-numbered shard whose image differs from `base` provides
    /// the whole image (fine for devices that at most one shard
    /// reconfigures per epoch, like the [`Timer`]). Devices with
    /// mergeable state — append-only logs, word-addressed RAM —
    /// override this with a field-level merge.
    fn merge_state(&self, base: &[u8], shards: &[&[u8]]) -> Vec<u8> {
        shards
            .iter()
            .rev()
            .find(|img| **img != base)
            .map_or_else(|| base.to_vec(), |img| img.to_vec())
    }

    /// Barrier-delta support (opt-in). A device whose mutable state is
    /// an append-only log can exchange *only the per-epoch suffix* at
    /// each barrier instead of serializing its full history:
    /// [`SocPeripheral::barrier_delta`] returns the bytes appended
    /// since the last barrier (`None` = no delta support, use the full
    /// `save_state`/`merge_state`/`restore_state` path), and
    /// [`SocPeripheral::apply_barrier`] replaces that unexchanged
    /// suffix with the canonical merged suffix — the concatenation of
    /// every shard's delta in shard order, which is the delta contract
    /// (devices needing a different merge don't opt in). This is what
    /// makes the [`ShardArbiter`] barrier O(epoch traffic) instead of
    /// O(accumulated history) for logging devices like the [`Uart`].
    fn barrier_delta(&self) -> Option<Vec<u8>> {
        None
    }

    /// Applies the canonical merged suffix of one barrier (see
    /// [`SocPeripheral::barrier_delta`]). Only called on devices that
    /// returned `Some` from `barrier_delta`.
    fn apply_barrier(&mut self, merged: &[u8]) {
        let _ = merged;
    }

    /// True if the device's state may have changed since the last
    /// barrier. The [`ShardArbiter`] skips the whole
    /// capture/merge/broadcast for a device no shard reports dirty —
    /// merging unchanged states returns the base bit-identically, so
    /// skipping is purely a cost change. The conservative default
    /// (always dirty) keeps custom devices correct; devices that track
    /// their own traffic override it.
    fn barrier_dirty(&self) -> bool {
        true
    }

    /// Clears the dirty mark after a full-state barrier reconciliation
    /// (delta devices clear their own journals in
    /// [`SocPeripheral::apply_barrier`]). Called *after* the broadcast
    /// `restore_state`, which conservatively re-marks devices dirty.
    fn mark_exchanged(&mut self) {}
}

/// Serialized state of every device on a [`SocBus`] plus the bus's own
/// transaction counter — the device half of a resumable platform image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocBusState {
    /// Per-device state images, in attachment order.
    devices: Vec<Vec<u8>>,
    /// Transactions served at capture time.
    transactions: u64,
}

impl SocBusState {
    /// Transactions the bus had served when this image was captured.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Serializes the bus image for a portable snapshot. Per-device
    /// images are opaque bytes (their encoding is private to each
    /// device), carried positionally.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        w.u64(self.devices.len() as u64);
        for img in &self.devices {
            w.bytes(img);
        }
        w.u64(self.transactions);
    }

    /// Decodes a [`SocBusState::encode_into`] image.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let ndevices = r.count("bus device images", 8)?;
        let mut devices = Vec::with_capacity(ndevices);
        for _ in 0..ndevices {
            devices.push(r.bytes("device image")?.to_vec());
        }
        Ok(SocBusState {
            devices,
            transactions: r.u64()?,
        })
    }
}

/// A word-level SoC bus with positional device decoding. Unclaimed
/// addresses read zero and ignore writes (open bus) and are *not*
/// counted as transactions — `transactions` counts accesses a device
/// actually served.
#[derive(Default)]
pub struct SocBus {
    devices: Vec<Box<dyn SocPeripheral>>,
    /// Transactions served (diagnostics).
    transactions: u64,
}

impl std::fmt::Debug for SocBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocBus")
            .field("devices", &self.devices.len())
            .field("transactions", &self.transactions)
            .finish()
    }
}

impl SocBus {
    /// An empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `(first, last_exclusive)` address windows of every attached
    /// device, in attach order — the MMIO half of the static
    /// analyzer's valid-address map.
    pub fn device_ranges(&self) -> Vec<(u32, u32)> {
        self.devices.iter().map(|d| d.range()).collect()
    }

    /// Attaches a peripheral to the bus; later devices win address
    /// overlaps (checked in order).
    pub fn attach(&mut self, dev: Box<dyn SocPeripheral>) {
        self.devices.push(dev);
    }

    /// Number of transactions served so far (open-bus accesses are not
    /// served and not counted).
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Routes a read.
    pub fn read(&mut self, soc_cycle: u64, addr: u32, size: u32) -> u32 {
        for d in &mut self.devices {
            let (lo, hi) = d.range();
            if (lo..hi).contains(&addr) {
                self.transactions += 1;
                return d.read(soc_cycle, addr, size);
            }
        }
        0
    }

    /// Routes a write.
    pub fn write(&mut self, soc_cycle: u64, addr: u32, size: u32, value: u32) {
        for d in &mut self.devices {
            let (lo, hi) = d.range();
            if (lo..hi).contains(&addr) {
                self.transactions += 1;
                d.write(soc_cycle, addr, size, value);
                return;
            }
        }
    }

    /// Concatenated transmit logs of all logging peripherals on the bus.
    pub fn uart_log(&self) -> Vec<(u64, u8)> {
        self.devices.iter().flat_map(|d| d.transmit_log()).collect()
    }

    /// Captures the state of every attached device plus the transaction
    /// counter.
    pub fn save_state(&self) -> SocBusState {
        SocBusState {
            devices: self.devices.iter().map(|d| d.save_state()).collect(),
            transactions: self.transactions,
        }
    }

    /// Restores a [`SocBus::save_state`] image into this bus.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] — before touching any device — if the
    /// image was captured from a bus with a different device count
    /// (state is positional, so the device population must match), or
    /// from the first device whose image does not decode. That device
    /// is unchanged, but the devices before it already hold their new
    /// images: callers restoring untrusted bytes restore into a bus
    /// they can discard or roll back.
    pub fn restore_state(&mut self, state: &SocBusState) -> Result<(), CodecError> {
        if state.devices.len() != self.devices.len() {
            return Err(CodecError::BadLength {
                what: "bus device images",
                len: state.devices.len() as u64,
            });
        }
        for (dev, img) in self.devices.iter_mut().zip(&state.devices) {
            dev.restore_state(img)?;
        }
        self.transactions = state.transactions;
        Ok(())
    }

    /// Merges per-shard bus states into one canonical image: each
    /// device merges its own per-shard images in shard order
    /// ([`SocPeripheral::merge_state`]), and the transaction counter
    /// accumulates every shard's delta over `base`. This is the
    /// epoch-barrier reduction of a sharded run; `self` only supplies
    /// the device types for dispatch (its state is not read).
    ///
    /// `base` must be the image every shard state descends from (the
    /// broadcast of the previous barrier) — the arbiter maintains this
    /// invariant; callers composing states by hand must too.
    ///
    /// # Panics
    ///
    /// Panics if any image was captured from a different device
    /// population (state is positional), and may panic (slice range /
    /// counter underflow) if `base` is *newer* than a shard image —
    /// e.g. a base captured after traffic a shard image predates —
    /// since suffix extraction and transaction deltas assume shard
    /// states extend the base.
    pub fn merge_states(&self, base: &SocBusState, shards: &[SocBusState]) -> SocBusState {
        assert_eq!(
            base.devices.len(),
            self.devices.len(),
            "merge base captured from a different device population"
        );
        for s in shards {
            assert_eq!(
                s.devices.len(),
                self.devices.len(),
                "shard state captured from a different device population"
            );
        }
        let devices = self
            .devices
            .iter()
            .enumerate()
            .map(|(i, dev)| {
                let imgs: Vec<&[u8]> = shards.iter().map(|s| s.devices[i].as_slice()).collect();
                dev.merge_state(&base.devices[i], &imgs)
            })
            .collect();
        let transactions = base.transactions
            + shards
                .iter()
                .map(|s| s.transactions - base.transactions)
                .sum::<u64>();
        SocBusState {
            devices,
            transactions,
        }
    }

    // --- device-granular accessors for the barrier exchange ------------

    /// Number of attached devices.
    fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// True if device `i` opts into the barrier-delta exchange.
    fn device_supports_delta(&self, i: usize) -> bool {
        self.devices[i].barrier_delta().is_some()
    }

    fn device_delta(&self, i: usize) -> Vec<u8> {
        self.devices[i]
            .barrier_delta()
            .expect("delta support checked against the same device population")
    }

    fn device_apply_barrier(&mut self, i: usize, merged: &[u8]) {
        self.devices[i].apply_barrier(merged);
    }

    fn device_state(&self, i: usize) -> Vec<u8> {
        self.devices[i].save_state()
    }

    fn device_restore(&mut self, i: usize, state: &[u8]) {
        self.devices[i]
            .restore_state(state)
            .expect("barrier images come from the same device type");
    }

    fn device_merge(&self, i: usize, base: &[u8], shards: &[&[u8]]) -> Vec<u8> {
        self.devices[i].merge_state(base, shards)
    }

    fn device_dirty(&self, i: usize) -> bool {
        self.devices[i].barrier_dirty()
    }

    fn device_mark_exchanged(&mut self, i: usize) {
        self.devices[i].mark_exchanged();
    }

    fn set_transactions(&mut self, transactions: u64) {
        self.transactions = transactions;
    }
}

// --- little-endian state (de)serialization helpers ----------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("u32 field"))
}

fn get_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("u64 field"))
}

/// A free-running timer clocked by generated SoC cycles.
///
/// Register map (offsets from base): `0x0` current count (read),
/// `0x4` compare value (read/write), `0x8` status — 1 once the count has
/// reached the compare value (read), `0xc` epoch reset (write).
#[derive(Debug)]
pub struct Timer {
    base: u32,
    epoch: u64,
    compare: u32,
    /// Reconfigured since the last barrier (not part of the state
    /// image — barrier bookkeeping, not device state).
    dirty: bool,
}

impl Timer {
    /// A timer at `base`.
    pub fn new(base: u32) -> Self {
        Timer {
            base,
            epoch: 0,
            compare: u32::MAX,
            dirty: false,
        }
    }
}

impl SocPeripheral for Timer {
    fn range(&self) -> (u32, u32) {
        (self.base, self.base + 0x10)
    }

    fn read(&mut self, soc_cycle: u64, addr: u32, _size: u32) -> u32 {
        let count = soc_cycle.saturating_sub(self.epoch);
        match addr - self.base {
            0x0 => count as u32,
            0x4 => self.compare,
            0x8 => (count >= self.compare as u64) as u32,
            _ => 0,
        }
    }

    fn write(&mut self, soc_cycle: u64, addr: u32, _size: u32, value: u32) {
        match addr - self.base {
            0x4 => {
                self.compare = value;
                self.dirty = true;
            }
            0xc => {
                self.epoch = soc_cycle;
                self.dirty = true;
            }
            _ => {}
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12);
        put_u64(&mut out, self.epoch);
        put_u32(&mut out, self.compare);
        out
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(state);
        let (epoch, compare) = (r.u64()?, r.u32()?);
        r.finish()?;
        self.epoch = epoch;
        self.compare = compare;
        // Conservative: the restored state may diverge from the
        // arbiter's canonical image, so the next barrier must look.
        self.dirty = true;
        Ok(())
    }

    fn barrier_dirty(&self) -> bool {
        self.dirty
    }

    fn mark_exchanged(&mut self) {
        self.dirty = false;
    }
}

/// A transmit-only UART that logs bytes with their SoC-cycle timestamps.
///
/// Register map: `0x0` data (write to transmit), `0x4` status (reads 1 —
/// always ready).
///
/// The log is append-only, so in a sharded run the UART opts into the
/// barrier-delta exchange: each epoch barrier moves only the bytes
/// transmitted *during that epoch* (`exchanged` marks the canonical
/// prefix), keeping barrier cost independent of how long the run — and
/// the accumulated log — has grown.
#[derive(Debug, Default)]
pub struct Uart {
    base: u32,
    log: Vec<(u64, u8)>,
    /// Entries already reconciled through a barrier (the canonical
    /// prefix length). Part of the saved state, so snapshot restores
    /// re-seat the delta mark along with the log.
    exchanged: usize,
}

impl Uart {
    /// A UART at `base`.
    pub fn new(base: u32) -> Self {
        Uart {
            base,
            log: Vec::new(),
            exchanged: 0,
        }
    }

    /// Bytes transmitted so far.
    pub fn transmitted(&self) -> &[(u64, u8)] {
        &self.log
    }

    fn encode_entries(entries: &[(u64, u8)], out: &mut Vec<u8>) {
        for &(ts, byte) in entries {
            put_u64(out, ts);
            out.push(byte);
        }
    }

    fn decode_entries(bytes: &[u8]) -> impl Iterator<Item = (u64, u8)> + '_ {
        bytes.chunks_exact(9).map(|c| (get_u64(c, 0), c[8]))
    }
}

impl SocPeripheral for Uart {
    fn range(&self) -> (u32, u32) {
        (self.base, self.base + 0x100)
    }

    fn transmit_log(&self) -> Vec<(u64, u8)> {
        self.log.clone()
    }

    fn read(&mut self, _soc_cycle: u64, addr: u32, _size: u32) -> u32 {
        match addr - self.base {
            0x4 => 1,
            _ => 0,
        }
    }

    fn write(&mut self, soc_cycle: u64, addr: u32, _size: u32, value: u32) {
        if addr - self.base == 0 {
            self.log.push((soc_cycle, value as u8));
        }
    }

    /// State image: an 8-byte exchanged-prefix header, then the log
    /// entries (9 bytes each).
    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 9 * self.log.len());
        put_u64(&mut out, self.exchanged as u64);
        Self::encode_entries(&self.log, &mut out);
        out
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(state);
        let exchanged = r.u64()?;
        let mut log = Vec::with_capacity(r.remaining() / 9);
        while r.remaining() > 0 {
            log.push((r.u64()?, r.u8()?));
        }
        if exchanged > log.len() as u64 {
            return Err(CodecError::BadLength {
                what: "UART exchanged prefix",
                len: exchanged,
            });
        }
        self.exchanged = exchanged as usize;
        self.log = log;
        Ok(())
    }

    /// The log is append-only within an epoch, so every shard image is
    /// the canonical prefix plus that shard's new bytes; the merge
    /// concatenates the suffixes in shard order. (Full-state fallback —
    /// the arbiter normally reconciles the UART through the O(epoch)
    /// barrier-delta path instead.)
    fn merge_state(&self, base: &[u8], shards: &[&[u8]]) -> Vec<u8> {
        let mut out = base.to_vec();
        for img in shards {
            out.extend_from_slice(&img[base.len()..]);
        }
        // The merged image is canonical through its full length.
        let entries = (out.len() - 8) / 9;
        out[..8].copy_from_slice(&(entries as u64).to_le_bytes());
        out
    }

    /// O(epoch) barrier exchange: only the entries past the canonical
    /// prefix travel.
    fn barrier_delta(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(9 * (self.log.len() - self.exchanged));
        Self::encode_entries(&self.log[self.exchanged..], &mut out);
        Some(out)
    }

    fn apply_barrier(&mut self, merged: &[u8]) {
        self.log.truncate(self.exchanged);
        self.log.extend(Self::decode_entries(merged));
        self.exchanged = self.log.len();
    }

    /// Dirty exactly when bytes sit past the exchanged prefix — no
    /// separate flag to maintain.
    fn barrier_dirty(&self) -> bool {
        self.log.len() > self.exchanged
    }
}

/// A scratch RAM window on the SoC bus (shared mailbox / DMA-style
/// buffer). Byte and halfword accesses honor their byte lanes.
///
/// The RAM keeps a *dirty-word journal*: every word address written
/// since the last barrier. The journal makes the epoch barrier
/// O(traffic) — [`SocPeripheral::barrier_delta`] ships only the
/// journaled `(addr, word)` pairs, and the canonical merge applies the
/// concatenated per-shard journals in shard order (on a conflict the
/// highest-numbered *writer* wins — a fixed, schedule-independent
/// tie-break), instead of diffing and broadcasting the full contents
/// every epoch however large the RAM has grown.
#[derive(Debug, Default)]
pub struct ScratchRam {
    base: u32,
    size: u32,
    words: HashMap<u32, u32>,
    /// Word addresses written since the last barrier, kept sorted so
    /// delta images are deterministic. Part of the saved state: a
    /// mid-epoch snapshot must resume with its pending writes still
    /// scheduled for the next barrier.
    journal: std::collections::BTreeSet<u32>,
}

impl ScratchRam {
    /// A RAM of `size` bytes at `base`.
    pub fn new(base: u32, size: u32) -> Self {
        ScratchRam {
            base,
            size,
            words: HashMap::new(),
            journal: std::collections::BTreeSet::new(),
        }
    }

    /// State image: an 8-byte journal-length header, the journaled
    /// addresses (ascending), then every `(addr, word)` pair sorted by
    /// address.
    fn encode(words: &HashMap<u32, u32>, journal: &std::collections::BTreeSet<u32>) -> Vec<u8> {
        let mut entries: Vec<(u32, u32)> = words.iter().map(|(&a, &w)| (a, w)).collect();
        entries.sort_unstable();
        let mut out = Vec::with_capacity(8 + 4 * journal.len() + 8 * entries.len());
        put_u64(&mut out, journal.len() as u64);
        for &addr in journal {
            put_u32(&mut out, addr);
        }
        for (addr, word) in entries {
            put_u32(&mut out, addr);
            put_u32(&mut out, word);
        }
        out
    }

    fn decode(
        state: &[u8],
    ) -> Result<(HashMap<u32, u32>, std::collections::BTreeSet<u32>), CodecError> {
        let mut r = ByteReader::new(state);
        let njournal = r.count("scratch-RAM journal", 4)?;
        let journal = (0..njournal).map(|_| r.u32()).collect::<Result<_, _>>()?;
        let mut words = HashMap::new();
        while r.remaining() > 0 {
            words.insert(r.u32()?, r.u32()?);
        }
        Ok((words, journal))
    }
}

impl SocPeripheral for ScratchRam {
    fn range(&self) -> (u32, u32) {
        (self.base, self.base + self.size)
    }

    fn read(&mut self, _soc_cycle: u64, addr: u32, size: u32) -> u32 {
        let word = *self.words.get(&(addr & !3)).unwrap_or(&0);
        match size {
            1 => (word >> ((addr & 3) * 8)) & 0xff,
            2 => (word >> ((addr & 2) * 8)) & 0xffff,
            _ => word,
        }
    }

    fn write(&mut self, _soc_cycle: u64, addr: u32, size: u32, value: u32) {
        let key = addr & !3;
        let old = *self.words.get(&key).unwrap_or(&0);
        let new = match size {
            1 => {
                let sh = (addr & 3) * 8;
                (old & !(0xff << sh)) | ((value & 0xff) << sh)
            }
            2 => {
                let sh = (addr & 2) * 8;
                (old & !(0xffff << sh)) | ((value & 0xffff) << sh)
            }
            _ => value,
        };
        self.words.insert(key, new);
        self.journal.insert(key);
    }

    fn save_state(&self) -> Vec<u8> {
        // Sorted by address: HashMap iteration order must not leak into
        // the snapshot image (replays compare state bytes for equality).
        Self::encode(&self.words, &self.journal)
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        (self.words, self.journal) = Self::decode(state)?;
        Ok(())
    }

    /// Word-granular merge: every journaled write is applied in shard
    /// order (on a conflict the highest-numbered writer wins — a fixed,
    /// schedule-independent tie-break). The merged journal is the union
    /// of the inputs' journals, so merging unchanged shards returns
    /// `base` bit-identically. (Full-state fallback — the arbiter
    /// normally reconciles the RAM through the O(traffic)
    /// barrier-delta path instead, with the same write-wins rule.)
    fn merge_state(&self, base: &[u8], shards: &[&[u8]]) -> Vec<u8> {
        let decode = |img| Self::decode(img).expect("merge inputs are scratch-RAM images");
        let (mut merged, mut journal) = decode(base);
        for img in shards {
            let (words, shard_journal) = decode(img);
            for &addr in &shard_journal {
                merged.insert(addr, words.get(&addr).copied().unwrap_or(0));
            }
            journal.extend(shard_journal);
        }
        Self::encode(&merged, &journal)
    }

    /// O(traffic) barrier exchange: only the journaled `(addr, word)`
    /// pairs travel.
    fn barrier_delta(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(8 * self.journal.len());
        for &addr in &self.journal {
            put_u32(&mut out, addr);
            put_u32(&mut out, self.words.get(&addr).copied().unwrap_or(0));
        }
        Some(out)
    }

    fn apply_barrier(&mut self, merged: &[u8]) {
        for c in merged.chunks_exact(8) {
            self.words.insert(get_u32(c, 0), get_u32(c, 4));
        }
        self.journal.clear();
    }

    fn barrier_dirty(&self) -> bool {
        !self.journal.is_empty()
    }
}

/// The per-shard NoC doorbell endpoint: a core-id register and one
/// mailbox per peer core, giving SPMD guests an inter-core signaling
/// path that does not round-trip through the merged scratch RAM.
///
/// Register map (offsets from base):
///
/// * `0x000` — this core's id (read-only; replaces the `%d15` seeding
///   convention, which is kept for compatibility)
/// * `0x004` — the shard count (read-only)
/// * `0x400 + 4*t` — doorbell *send* window: writing a word rings core
///   `t`'s doorbell with that value (writes to cores ≥ the shard count
///   are dropped)
/// * `0x800 + 4*s` — doorbell *inbox* window: the last value core `s`
///   sent to this core, `0` until the first delivery
///
/// Delivery is *epoch-synchronous*: sends append to a private outbox
/// journal and are delivered into the targets' inboxes at the next
/// epoch barrier, in shard order (the [`ShardArbiter`]'s delta
/// contract) — so delivery has a deterministic one-epoch latency and
/// runs are bit-identical whatever host schedule executed the epoch.
/// On a single-core session the device still answers the id/count
/// registers, but with no barrier there is no delivery.
///
/// Unlike every other peripheral the CoreLink is *not* identical
/// across shards — each shard's inbox is private, which is exactly why
/// it reconciles through the per-device
/// [`SocPeripheral::apply_barrier`] (each endpoint filters the merged
/// send journal by its own id) rather than a broadcast canonical
/// image. The id and shard count are construction identity, not state:
/// they are excluded from the state image so resets and snapshot
/// restores cannot clobber which core a bus belongs to.
#[derive(Debug)]
pub struct CoreLink {
    base: u32,
    /// This endpoint's core id; `u32::MAX` marks an arbiter mirror,
    /// which observes the exchange but never receives a delivery.
    core_id: u32,
    ncores: u32,
    /// Last delivered value per source core.
    inbox: Vec<u32>,
    /// `(src, target, value)` sends since the last barrier.
    outbox: Vec<(u32, u32, u32)>,
}

/// Byte size of the [`CoreLink`] MMIO window (fixed — covers 256
/// cores, the fabric's design ceiling).
pub const CORE_LINK_WINDOW: u32 = 0xc00;

impl CoreLink {
    /// The endpoint of core `core_id` in a fabric of `ncores`.
    pub fn new(base: u32, core_id: u32, ncores: u32) -> Self {
        CoreLink {
            base,
            core_id,
            ncores,
            inbox: vec![0; ncores as usize],
            outbox: Vec::new(),
        }
    }

    /// An arbiter-mirror endpoint: participates in the barrier exchange
    /// (so device populations stay positional) but is no core, receives
    /// nothing, and keeps an all-zero inbox.
    pub fn mirror(base: u32, ncores: u32) -> Self {
        Self::new(base, u32::MAX, ncores)
    }
}

impl SocPeripheral for CoreLink {
    fn range(&self) -> (u32, u32) {
        (self.base, self.base + CORE_LINK_WINDOW)
    }

    fn read(&mut self, _soc_cycle: u64, addr: u32, _size: u32) -> u32 {
        match addr - self.base {
            0x0 => self.core_id,
            0x4 => self.ncores,
            o if (0x800..CORE_LINK_WINDOW).contains(&o) => {
                let src = ((o - 0x800) / 4) as usize;
                self.inbox.get(src).copied().unwrap_or(0)
            }
            _ => 0,
        }
    }

    fn write(&mut self, _soc_cycle: u64, addr: u32, _size: u32, value: u32) {
        let o = addr - self.base;
        if (0x400..0x800).contains(&o) {
            let target = (o - 0x400) / 4;
            if target < self.ncores {
                self.outbox.push((self.core_id, target, value));
            }
        }
    }

    /// State image: an 8-byte inbox-length header, the inbox words,
    /// an 8-byte outbox-length header, then the `(src, target, value)`
    /// send triples. The core id and shard count are construction
    /// identity and deliberately not part of the image.
    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * self.inbox.len() + 12 * self.outbox.len());
        put_u64(&mut out, self.inbox.len() as u64);
        for &w in &self.inbox {
            put_u32(&mut out, w);
        }
        put_u64(&mut out, self.outbox.len() as u64);
        for &(src, target, value) in &self.outbox {
            put_u32(&mut out, src);
            put_u32(&mut out, target);
            put_u32(&mut out, value);
        }
        out
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(state);
        let ninbox = r.count("CoreLink inbox", 4)?;
        let inbox = (0..ninbox).map(|_| r.u32()).collect::<Result<_, _>>()?;
        let noutbox = r.count("CoreLink outbox", 12)?;
        let outbox = (0..noutbox)
            .map(|_| Ok((r.u32()?, r.u32()?, r.u32()?)))
            .collect::<Result<_, CodecError>>()?;
        r.finish()?;
        self.inbox = inbox;
        self.outbox = outbox;
        Ok(())
    }

    /// O(traffic) barrier exchange: only the sends of the epoch travel.
    fn barrier_delta(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(12 * self.outbox.len());
        for &(src, target, value) in &self.outbox {
            put_u32(&mut out, src);
            put_u32(&mut out, target);
            put_u32(&mut out, value);
        }
        Some(out)
    }

    /// Delivery: every send of the epoch, in shard order; each endpoint
    /// keeps only the triples addressed to its own id (on two sends
    /// from one source, the later one in shard-merge order wins).
    fn apply_barrier(&mut self, merged: &[u8]) {
        for c in merged.chunks_exact(12) {
            let (src, target, value) = (get_u32(c, 0), get_u32(c, 4), get_u32(c, 8));
            if target == self.core_id {
                if let Some(slot) = self.inbox.get_mut(src as usize) {
                    *slot = value;
                }
            }
        }
        self.outbox.clear();
    }

    fn barrier_dirty(&self) -> bool {
        !self.outbox.is_empty()
    }
}

/// A cloneable handle to one [`SocBus`] — the currency for sharing a
/// device population between execution vehicles: the golden model (via
/// [`GoldenBridge`]) and translated platforms route into the same
/// peripherals through clones of this handle. The handle is
/// `Send + Sync` (shards of a parallel session carry their private
/// buses onto worker threads); accesses serialize through an
/// uncontended mutex — within an epoch exactly one shard owns every
/// handle to its bus, so the lock never blocks on the hot path.
///
/// Sharded sessions deliberately do *not* alias one bus across shards:
/// each shard gets a private clone of the device population, and the
/// [`ShardArbiter`] reconciles the states at epoch barriers. Handing
/// the same handle to two concurrently running shards would make runs
/// schedule-dependent; [`ShardArbiter::new`] rejects aliased buses.
#[derive(Clone)]
pub struct SharedSocBus(Arc<Mutex<SocBus>>);

impl std::fmt::Debug for SharedSocBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SharedSocBus")
            .field(&*self.0.lock().expect("bus lock"))
            .finish()
    }
}

impl SharedSocBus {
    /// Wraps a bus into a shareable handle.
    pub fn new(bus: SocBus) -> Self {
        SharedSocBus(Arc::new(Mutex::new(bus)))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SocBus> {
        self.0.lock().expect("SoC bus lock poisoned")
    }

    /// Attaches a peripheral. Attach the full device population before
    /// capturing any [`SocBusState`] — state is positional.
    pub fn attach(&self, dev: Box<dyn SocPeripheral>) {
        self.lock().attach(dev);
    }

    /// Routes a read at SoC time `soc_cycle`.
    pub fn read(&self, soc_cycle: u64, addr: u32, size: u32) -> u32 {
        self.lock().read(soc_cycle, addr, size)
    }

    /// Routes a write at SoC time `soc_cycle`.
    pub fn write(&self, soc_cycle: u64, addr: u32, size: u32, value: u32) {
        self.lock().write(soc_cycle, addr, size, value);
    }

    /// Concatenated transmit logs of all logging peripherals.
    pub fn uart_log(&self) -> Vec<(u64, u8)> {
        self.lock().uart_log()
    }

    /// Transactions served so far.
    pub fn transactions(&self) -> u64 {
        self.lock().transactions()
    }

    /// Captures the bus state (see [`SocBus::save_state`]).
    pub fn save_state(&self) -> SocBusState {
        self.lock().save_state()
    }

    /// Restores a captured bus state (see [`SocBus::restore_state`]).
    ///
    /// # Errors
    ///
    /// See [`SocBus::restore_state`].
    pub fn restore_state(&self, state: &SocBusState) -> Result<(), CodecError> {
        self.lock().restore_state(state)
    }

    /// True if `other` is a handle to the same underlying bus.
    pub fn same_bus(&self, other: &SharedSocBus) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    // --- device-granular barrier plumbing (arbiter-internal) -----------

    fn device_delta(&self, i: usize) -> Vec<u8> {
        self.lock().device_delta(i)
    }

    fn device_apply_barrier(&self, i: usize, merged: &[u8]) {
        self.lock().device_apply_barrier(i, merged);
    }

    fn device_state(&self, i: usize) -> Vec<u8> {
        self.lock().device_state(i)
    }

    fn device_restore(&self, i: usize, state: &[u8]) {
        self.lock().device_restore(i, state);
    }

    fn device_dirty(&self, i: usize) -> bool {
        self.lock().device_dirty(i)
    }

    fn device_mark_exchanged(&self, i: usize) {
        self.lock().device_mark_exchanged(i);
    }

    fn set_transactions(&self, transactions: u64) {
        self.lock().set_transactions(transactions);
    }
}

/// The epoch-barrier arbiter of a sharded run. Every shard owns a
/// *private* [`SharedSocBus`] with an identical device population;
/// within an epoch each shard talks only to its own devices (so shards
/// can run concurrently on worker threads), and at the barrier the
/// arbiter [`exchanges`](ShardArbiter::exchange) the per-shard
/// [`SocBusState`] images: it merges them in fixed shard order over
/// the canonical image of the previous boundary
/// ([`SocBus::merge_states`]) and broadcasts the result back into
/// every shard's bus. The merge is a pure function of the states, so a
/// run's device behaviour is identical whatever host schedule executed
/// the epoch — which is exactly what makes the sequential and pooled
/// shard schedulers bit-identical.
///
/// The arbiter holds the canonical state in a private *mirror* bus (a
/// device population never attached to any engine); mid-epoch
/// aggregate views ([`ShardArbiter::transactions`],
/// [`ShardArbiter::uart_log`]) combine the mirror with the per-shard
/// deltas accumulated since the last barrier.
#[derive(Debug)]
pub struct ShardArbiter {
    /// Canonical device state as of the last barrier.
    mirror: SocBus,
    /// Per-shard private buses, in shard order.
    buses: Vec<SharedSocBus>,
    /// Epoch boundaries crossed.
    epochs: u64,
}

impl ShardArbiter {
    /// An arbiter over per-shard buses (in shard order), with `mirror`
    /// holding the canonical device population. All buses and the
    /// mirror must carry the same device population in the same state.
    ///
    /// # Panics
    ///
    /// Panics if two shard slots alias the same underlying bus —
    /// aliasing would let one shard's mid-epoch traffic leak into
    /// another's, making runs schedule-dependent — or if a shard bus
    /// carries a different device count than the mirror (state
    /// exchange is positional, so the populations must match).
    pub fn new(mirror: SocBus, buses: Vec<SharedSocBus>) -> Self {
        for (i, a) in buses.iter().enumerate() {
            assert_eq!(
                a.lock().device_count(),
                mirror.device_count(),
                "shard bus {i} carries a different device population than the mirror"
            );
            for b in &buses[i + 1..] {
                assert!(
                    !a.same_bus(b),
                    "shard buses must be private: slots may not alias one SocBus"
                );
            }
        }
        ShardArbiter {
            mirror,
            buses,
            epochs: 0,
        }
    }

    /// Shard `i`'s private bus handle.
    pub fn bus(&self, i: usize) -> SharedSocBus {
        self.buses[i].clone()
    }

    /// Number of shard buses.
    pub fn shard_count(&self) -> usize {
        self.buses.len()
    }

    /// Runs the epoch barrier: reconciles every device across the
    /// shard buses and the canonical mirror, then returns the number
    /// of bus transactions served during the epoch that just ended.
    ///
    /// Devices are exchanged one of two ways:
    ///
    /// * **delta path** ([`SocPeripheral::barrier_delta`]) — append-only
    ///   devices (the [`Uart`]) ship only the suffix logged since the
    ///   previous barrier; the canonical suffix is the concatenation in
    ///   shard order, applied everywhere. Cost is O(epoch traffic),
    ///   independent of accumulated history — a long run's barrier does
    ///   not slow down as the log grows.
    /// * **full-state path** — everything else goes through
    ///   `save_state` → [`SocPeripheral::merge_state`] (in shard order,
    ///   over the canonical base) → `restore_state`, as before.
    ///
    /// Both paths produce the same canonical image the all-full-state
    /// exchange produced; the delta path is purely a cost change.
    ///
    /// A device *no* shard reports dirty ([`SocPeripheral::barrier_dirty`])
    /// is skipped outright: its merge would return the canonical base
    /// bit-identically, so neither capture, merge, nor broadcast runs —
    /// an idle device costs the barrier one flag read per shard.
    pub fn exchange(&mut self) -> u64 {
        let base_transactions = self.mirror.transactions();
        let served: u64 = self
            .buses
            .iter()
            .map(|b| b.transactions() - base_transactions)
            .sum();
        for i in 0..self.mirror.device_count() {
            if !self.buses.iter().any(|b| b.device_dirty(i)) {
                continue;
            }
            if self.mirror.device_supports_delta(i) {
                // O(epoch): move only the per-epoch suffixes, in shard
                // order (the delta-merge contract).
                let mut merged = Vec::new();
                for bus in &self.buses {
                    merged.extend_from_slice(&bus.device_delta(i));
                }
                self.mirror.device_apply_barrier(i, &merged);
                for bus in &self.buses {
                    bus.device_apply_barrier(i, &merged);
                }
            } else {
                let base = self.mirror.device_state(i);
                let imgs: Vec<Vec<u8>> = self.buses.iter().map(|b| b.device_state(i)).collect();
                let refs: Vec<&[u8]> = imgs.iter().map(std::vec::Vec::as_slice).collect();
                let merged = self.mirror.device_merge(i, &base, &refs);
                self.mirror.device_restore(i, &merged);
                for bus in &self.buses {
                    bus.device_restore(i, &merged);
                }
                // `restore_state` conservatively re-marks devices
                // dirty; the broadcast IS the reconciliation, so clear
                // the marks (after the restores, or they would stick).
                self.mirror.device_mark_exchanged(i);
                for bus in &self.buses {
                    bus.device_mark_exchanged(i);
                }
            }
        }
        self.mirror.set_transactions(base_transactions + served);
        for bus in &self.buses {
            bus.set_transactions(base_transactions + served);
        }
        self.epochs += 1;
        served
    }

    /// Epoch boundaries crossed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The canonical device-state image of the last epoch boundary —
    /// what a session snapshot, a shard handed to another host, or an
    /// external checkpoint carries.
    pub fn canonical_state(&self) -> SocBusState {
        self.mirror.save_state()
    }

    /// Total bus transactions served: the canonical count plus every
    /// shard's delta since the last barrier.
    pub fn transactions(&self) -> u64 {
        let canonical = self.mirror.transactions();
        canonical
            + self
                .buses
                .iter()
                .map(|b| b.transactions() - canonical)
                .sum::<u64>()
    }

    /// The merged transmit log: the canonical log plus each shard's
    /// mid-epoch suffix, in shard order (logs are append-only within an
    /// epoch, so every shard log extends the canonical prefix).
    pub fn uart_log(&self) -> Vec<(u64, u8)> {
        let mut out = self.mirror.uart_log();
        let canonical_len = out.len();
        for bus in &self.buses {
            let log = bus.uart_log();
            out.extend_from_slice(&log[canonical_len..]);
        }
        out
    }

    /// Resets the whole device fabric to `initial`: the mirror and
    /// every shard bus are restored and the epoch counter cleared.
    pub fn reset(&mut self, initial: &SocBusState) {
        let expect = "the initial image was captured from this fabric";
        self.mirror.restore_state(initial).expect(expect);
        for bus in &self.buses {
            bus.restore_state(initial).expect(expect);
        }
        self.epochs = 0;
    }

    /// Restores the canonical state and epoch counter from a snapshot —
    /// the restore-side pair of [`ShardArbiter::exchange`]. The
    /// per-shard buses are restored by their owners (each shard's
    /// snapshot carries its own possibly mid-epoch device image); this
    /// only re-seats the barrier's merge base.
    ///
    /// # Errors
    ///
    /// See [`SocBus::restore_state`]; the epoch counter is kept then.
    pub fn restore_canonical(
        &mut self,
        state: &SocBusState,
        epochs: u64,
    ) -> Result<(), CodecError> {
        self.mirror.restore_state(state)?;
        self.epochs = epochs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_routes_by_range() {
        let mut bus = SocBus::new();
        bus.attach(Box::new(Timer::new(0x1000)));
        bus.attach(Box::new(ScratchRam::new(0x2000, 0x100)));
        bus.write(0, 0x2004, 4, 0xabcd);
        assert_eq!(bus.read(0, 0x2004, 4), 0xabcd);
        assert_eq!(bus.read(5, 0x1000, 4), 5, "timer count");
        assert_eq!(bus.read(0, 0x9999, 4), 0, "open bus reads zero");
        assert_eq!(
            bus.transactions(),
            3,
            "open-bus accesses are not served and not counted"
        );
    }

    #[test]
    fn timer_compare_and_reset() {
        let mut t = Timer::new(0);
        t.write(0, 0x4, 4, 100); // compare = 100
        assert_eq!(t.read(50, 0x8, 4), 0);
        assert_eq!(t.read(100, 0x8, 4), 1);
        t.write(150, 0xc, 4, 0); // reset epoch at soc time 150
        assert_eq!(t.read(170, 0x0, 4), 20);
        assert_eq!(t.read(170, 0x8, 4), 0);
    }

    #[test]
    fn uart_logs_bytes_with_time() {
        let mut u = Uart::new(0x100);
        assert_eq!(u.read(0, 0x104, 4), 1, "always ready");
        u.write(10, 0x100, 4, b'A' as u32);
        u.write(20, 0x100, 4, b'B' as u32);
        assert_eq!(u.transmitted(), &[(10, b'A'), (20, b'B')]);
    }

    #[test]
    fn scratch_ram_round_trips() {
        let mut r = ScratchRam::new(0, 64);
        r.write(0, 16, 4, 42);
        assert_eq!(r.read(0, 16, 4), 42);
        assert_eq!(r.read(0, 20, 4), 0);
    }

    #[test]
    fn scratch_ram_honors_byte_lanes() {
        let mut r = ScratchRam::new(0, 64);
        r.write(0, 8, 4, 0xaabb_ccdd);
        // Byte store replaces one lane, not the whole word.
        r.write(0, 9, 1, 0x11);
        assert_eq!(r.read(0, 8, 4), 0xaabb_11dd);
        // Halfword store replaces the upper lane pair.
        r.write(0, 10, 2, 0x2233);
        assert_eq!(r.read(0, 8, 4), 0x2233_11dd);
        // Sub-word reads extract their lanes, zero-extended.
        assert_eq!(r.read(0, 9, 1), 0x11);
        assert_eq!(r.read(0, 11, 1), 0x22);
        assert_eq!(r.read(0, 8, 2), 0x11dd);
        assert_eq!(r.read(0, 10, 2), 0x2233);
    }

    #[test]
    fn timer_state_round_trips() {
        let mut t = Timer::new(0);
        t.write(0, 0x4, 4, 77); // compare
        t.write(123, 0xc, 4, 0); // epoch = 123
        let img = t.save_state();
        let mut fresh = Timer::new(0);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.read(200, 0x0, 4), 77, "epoch restored");
        assert_eq!(fresh.read(200, 0x4, 4), 77, "compare restored");
        assert_eq!(fresh.save_state(), img);
    }

    #[test]
    fn uart_state_round_trips() {
        let mut u = Uart::new(0);
        u.write(10, 0, 4, b'X' as u32);
        u.write(900, 0, 4, b'Y' as u32);
        let img = u.save_state();
        let mut fresh = Uart::new(0);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.transmitted(), u.transmitted());
        // Restoring an earlier image truncates later transmissions —
        // the double-log fix.
        u.write(1000, 0, 4, b'Z' as u32);
        u.restore_state(&img).unwrap();
        assert_eq!(u.transmitted().len(), 2);
    }

    #[test]
    fn scratch_ram_state_is_deterministic_and_round_trips() {
        let mut r = ScratchRam::new(0, 0x100);
        for i in 0..16u32 {
            r.write(0, (16 - i) * 4, 4, i * 3 + 1);
        }
        let img = r.save_state();
        let mut r2 = ScratchRam::new(0, 0x100);
        for i in (0..16u32).rev() {
            r2.write(0, (16 - i) * 4, 4, i * 3 + 1);
        }
        assert_eq!(
            r2.save_state(),
            img,
            "state image must not depend on insertion order"
        );
        let mut fresh = ScratchRam::new(0, 0x100);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.read(0, 4 * 4, 4), r.read(0, 4 * 4, 4));
        assert_eq!(fresh.save_state(), img);
    }

    #[test]
    fn bus_state_round_trips_all_devices() {
        let mut bus = SocBus::new();
        bus.attach(Box::new(Timer::new(0x0)));
        bus.attach(Box::new(Uart::new(0x100)));
        bus.attach(Box::new(ScratchRam::new(0x200, 0x100)));
        bus.write(5, 0x200, 4, 99);
        bus.write(7, 0x100, 4, b'!' as u32);
        bus.write(9, 0xc, 4, 0); // timer epoch = 9
        let img = bus.save_state();

        bus.write(20, 0x100, 4, b'?' as u32);
        bus.write(20, 0x204, 4, 1);
        assert_eq!(bus.uart_log().len(), 2);

        bus.restore_state(&img).unwrap();
        assert_eq!(bus.uart_log(), vec![(7, b'!')]);
        assert_eq!(bus.read(10, 0x204, 4), 0, "later write rolled back");
        assert_eq!(bus.read(10, 0x0, 4), 1, "timer epoch restored (10 - 9)");
        assert_eq!(img, {
            // transactions counter restored too (the reads above advanced it)
            let mut b2 = SocBus::new();
            b2.attach(Box::new(Timer::new(0x0)));
            b2.attach(Box::new(Uart::new(0x100)));
            b2.attach(Box::new(ScratchRam::new(0x200, 0x100)));
            b2.restore_state(&img).unwrap();
            b2.save_state()
        });
    }

    #[test]
    fn bus_state_rejects_mismatched_population() {
        let mut a = SocBus::new();
        a.attach(Box::new(Timer::new(0)));
        let img = a.save_state();
        let mut b = SocBus::new();
        b.attach(Box::new(Timer::new(0)));
        b.attach(Box::new(Uart::new(0x100)));
        let before = b.save_state();
        assert!(matches!(
            b.restore_state(&img),
            Err(CodecError::BadLength { len: 1, .. })
        ));
        assert_eq!(b.save_state(), before, "a refused image changes nothing");
    }

    #[test]
    fn malformed_device_images_are_refused_before_any_change() {
        let mut t = Timer::new(0);
        t.write(7, 0xc, 4, 0);
        let good = t.save_state();
        let mut u = Uart::new(0x100);
        u.write(3, 0x100, 4, 0x41);
        let mut ram = ScratchRam::new(0x200, 0x100);
        ram.write(0, 0x204, 4, 9);
        let mut link = CoreLink::new(0x400, 0, 2);
        let bad: [(&mut dyn SocPeripheral, Vec<u8>); 6] = [
            (&mut t, good[..3].to_vec()),
            (&mut Timer::new(0), [&good[..], &[0]].concat()),
            (&mut u, vec![0; 3]),
            // An exchanged prefix longer than the log.
            (&mut Uart::new(0), 1u64.to_le_bytes().to_vec()),
            (&mut ram, vec![0xff; 8]),
            (&mut link, vec![0xff; 8]),
        ];
        for (i, (dev, img)) in bad.into_iter().enumerate() {
            let before = dev.save_state();
            assert!(
                dev.restore_state(&img).is_err(),
                "image {i} must be refused"
            );
            assert_eq!(dev.save_state(), before, "image {i} changed the device");
        }
    }

    #[test]
    fn shared_bus_serves_multiple_handles() {
        let bus = SharedSocBus::new(SocBus::new());
        bus.attach(Box::new(Uart::new(0x100)));
        let other = bus.clone();
        bus.write(1, 0x100, 4, b'a' as u32);
        other.write(2, 0x100, 4, b'b' as u32);
        assert_eq!(bus.uart_log(), vec![(1, b'a'), (2, b'b')]);
        assert!(bus.same_bus(&other));
        assert!(!bus.same_bus(&SharedSocBus::new(SocBus::new())));
    }

    fn arbiter_population() -> SocBus {
        let mut bus = SocBus::new();
        bus.attach(Box::new(Timer::new(0x0)));
        bus.attach(Box::new(Uart::new(0x100)));
        bus.attach(Box::new(ScratchRam::new(0x200, 0x100)));
        bus
    }

    #[test]
    fn arbiter_exchange_merges_and_broadcasts() {
        let shard0 = SharedSocBus::new(arbiter_population());
        let shard1 = SharedSocBus::new(arbiter_population());
        let initial = shard0.save_state();
        let mut arb = ShardArbiter::new(arbiter_population(), vec![shard0.clone(), shard1.clone()]);
        assert_eq!(arb.epochs(), 0);
        assert_eq!(arb.canonical_state(), initial);

        // Epoch 1: shard 0 fills the mailbox, shard 1 transmits.
        shard0.write(5, 0x200, 4, 99);
        shard1.write(7, 0x100, 4, b'b' as u32);
        assert_eq!(arb.transactions(), 2, "mid-epoch deltas are aggregated");
        assert_eq!(arb.uart_log(), vec![(7, b'b')]);
        assert_eq!(arb.exchange(), 2, "two transactions this epoch");
        assert_eq!(arb.epochs(), 1);
        assert_eq!(arb.canonical_state(), shard0.save_state());

        // Both shards now see the merged state.
        for bus in [&shard0, &shard1] {
            assert_eq!(bus.read(9, 0x200, 4), 99, "mailbox word broadcast");
            assert_eq!(bus.uart_log(), vec![(7, b'b')], "UART log broadcast");
        }

        // Idle epoch: nothing served (the reads above count, so take
        // the counter before and after a no-traffic exchange).
        let before = arb.exchange();
        assert_eq!(arb.exchange(), 0, "idle epoch after {before} reads");

        arb.reset(&initial);
        assert_eq!(arb.epochs(), 0);
        assert_eq!(arb.canonical_state(), initial);
        assert_eq!(shard1.save_state(), initial, "reset restores every bus");
    }

    #[test]
    fn arbiter_merge_is_shard_ordered_and_schedule_independent() {
        // Both shards write the same mailbox word in one epoch: the
        // higher-numbered shard wins, whatever order the writes landed.
        let shard0 = SharedSocBus::new(arbiter_population());
        let shard1 = SharedSocBus::new(arbiter_population());
        let mut arb = ShardArbiter::new(arbiter_population(), vec![shard0.clone(), shard1.clone()]);
        shard1.write(3, 0x204, 4, 0x1111); // "later" shard writes first
        shard0.write(4, 0x204, 4, 0x2222);
        shard0.write(4, 0x208, 4, 0x3333); // uncontended word survives
        arb.exchange();
        assert_eq!(shard0.read(9, 0x204, 4), 0x1111, "shard-order tie-break");
        assert_eq!(shard1.read(9, 0x208, 4), 0x3333);

        // UART suffixes concatenate in shard order regardless of
        // timestamps.
        shard1.write(10, 0x100, 4, b'B' as u32);
        shard0.write(20, 0x100, 4, b'A' as u32);
        arb.exchange();
        let bytes: Vec<u8> = arb.uart_log().iter().map(|&(_, b)| b).collect();
        assert_eq!(bytes, b"AB", "shard 0's byte merges first");
    }

    #[test]
    fn uart_barrier_delta_is_the_epoch_suffix_only() {
        let mut u = Uart::new(0);
        u.write(1, 0, 4, b'a' as u32);
        u.write(2, 0, 4, b'b' as u32);
        let d = u.barrier_delta().expect("uart supports deltas");
        assert_eq!(d.len(), 18, "two unexchanged entries");
        u.apply_barrier(&d);
        assert_eq!(
            u.barrier_delta().unwrap().len(),
            0,
            "after the barrier nothing is pending"
        );
        // Only traffic of the new epoch travels, however long the log.
        u.write(3, 0, 4, b'c' as u32);
        assert_eq!(u.barrier_delta().unwrap().len(), 9);
        assert_eq!(u.transmitted().len(), 3, "history intact");

        // The exchanged mark survives a save/restore round trip.
        let img = u.save_state();
        let mut fresh = Uart::new(0);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.barrier_delta().unwrap().len(), 9);
        assert_eq!(fresh.transmitted(), u.transmitted());
    }

    #[test]
    fn delta_exchange_accumulates_canonically_over_many_epochs() {
        // Multi-epoch run: every epoch's bytes merge in shard order
        // behind the history, no byte is duplicated or dropped, and
        // the canonical image matches every shard's image at each
        // barrier — the behaviour the full-state exchange had, now at
        // O(epoch) cost.
        let shard0 = SharedSocBus::new(arbiter_population());
        let shard1 = SharedSocBus::new(arbiter_population());
        let mut arb = ShardArbiter::new(arbiter_population(), vec![shard0.clone(), shard1.clone()]);
        let mut expected: Vec<u8> = Vec::new();
        for epoch in 0..5u8 {
            let a = b'a' + 2 * epoch;
            let b = a + 1;
            shard1.write(10 + epoch as u64, 0x100, 4, b as u32);
            shard0.write(20 + epoch as u64, 0x100, 4, a as u32);
            expected.push(a); // shard order, whatever the write order
            expected.push(b);
            arb.exchange();
            let bytes: Vec<u8> = arb.uart_log().iter().map(|&(_, x)| x).collect();
            assert_eq!(bytes, expected, "epoch {epoch}: merged log");
            assert_eq!(
                arb.canonical_state(),
                shard0.save_state(),
                "epoch {epoch}: broadcast state"
            );
            assert_eq!(shard0.save_state(), shard1.save_state());
        }
    }

    #[test]
    #[should_panic(expected = "must be private")]
    fn arbiter_rejects_aliased_shard_buses() {
        let bus = SharedSocBus::new(arbiter_population());
        ShardArbiter::new(arbiter_population(), vec![bus.clone(), bus.clone()]);
    }

    #[test]
    fn scratch_ram_journal_is_the_epoch_traffic_only() {
        let mut r = ScratchRam::new(0, 0x100);
        r.write(0, 0x10, 4, 7);
        r.write(0, 0x20, 4, 9);
        let d = r.barrier_delta().expect("scratch ram supports deltas");
        assert_eq!(d.len(), 16, "two journaled words");
        r.apply_barrier(&d);
        assert!(!r.barrier_dirty(), "journal cleared at the barrier");
        assert_eq!(
            r.barrier_delta().unwrap().len(),
            0,
            "after the barrier nothing is pending"
        );
        // Only the epoch's writes travel, however full the RAM.
        r.write(0, 0x10, 4, 8);
        assert_eq!(r.barrier_delta().unwrap().len(), 8);
        assert_eq!(r.read(0, 0x20, 4), 9, "contents intact");

        // The journal survives a save/restore round trip (a mid-epoch
        // snapshot resumes with its writes still pending exchange).
        let img = r.save_state();
        let mut fresh = ScratchRam::new(0, 0x100);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.barrier_delta(), r.barrier_delta());
        assert_eq!(fresh.save_state(), img);
    }

    #[test]
    fn timer_dirty_tracks_configuration_writes() {
        let mut t = Timer::new(0);
        assert!(!t.barrier_dirty(), "fresh timer is clean");
        assert_eq!(t.read(5, 0x0, 4), 5);
        assert!(!t.barrier_dirty(), "reads do not dirty");
        t.write(0, 0x4, 4, 100);
        assert!(t.barrier_dirty());
        t.mark_exchanged();
        assert!(!t.barrier_dirty());
        t.restore_state(&t.save_state()).unwrap();
        assert!(t.barrier_dirty(), "a restore is conservatively dirty");
    }

    /// A device whose capture calls are observable, for pinning the
    /// arbiter's clean-device skip.
    struct Probe {
        captures: Arc<std::sync::atomic::AtomicUsize>,
        dirty: Arc<std::sync::atomic::AtomicBool>,
    }

    impl SocPeripheral for Probe {
        fn range(&self) -> (u32, u32) {
            (0x9000, 0x9010)
        }
        fn read(&mut self, _c: u64, _a: u32, _s: u32) -> u32 {
            0
        }
        fn write(&mut self, _c: u64, _a: u32, _s: u32, _v: u32) {}
        fn save_state(&self) -> Vec<u8> {
            use std::sync::atomic::Ordering;
            self.captures.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        }
        fn barrier_dirty(&self) -> bool {
            self.dirty.load(std::sync::atomic::Ordering::Relaxed)
        }
        fn mark_exchanged(&mut self) {
            self.dirty
                .store(false, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn arbiter_skips_devices_no_shard_dirtied() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let captures = Arc::new(AtomicUsize::new(0));
        let dirty = Arc::new(AtomicBool::new(false));
        let population = || {
            let mut bus = SocBus::new();
            bus.attach(Box::new(Probe {
                captures: Arc::clone(&captures),
                dirty: Arc::clone(&dirty),
            }));
            bus
        };
        let shard0 = SharedSocBus::new(population());
        let shard1 = SharedSocBus::new(population());
        let mut arb = ShardArbiter::new(population(), vec![shard0, shard1]);
        arb.exchange();
        assert_eq!(
            captures.load(Ordering::Relaxed),
            0,
            "a clean device is not captured, merged, or broadcast"
        );
        dirty.store(true, Ordering::Relaxed);
        arb.exchange();
        assert_eq!(
            captures.load(Ordering::Relaxed),
            3,
            "a dirty device is captured on the mirror and both shards"
        );
        assert!(!dirty.load(Ordering::Relaxed), "marked exchanged after");
    }

    fn doorbell_population(core_id: u32, ncores: u32) -> SocBus {
        let mut bus = SocBus::new();
        bus.attach(Box::new(Uart::new(0x100)));
        bus.attach(Box::new(CoreLink::new(0x2000, core_id, ncores)));
        bus
    }

    #[test]
    fn corelink_identity_registers_and_window() {
        let mut link = CoreLink::new(0x2000, 3, 8);
        assert_eq!(link.range(), (0x2000, 0x2c00));
        assert_eq!(link.read(0, 0x2000, 4), 3, "core id");
        assert_eq!(link.read(0, 0x2004, 4), 8, "shard count");
        assert_eq!(link.read(0, 0x2800, 4), 0, "inbox empty");
        // Sends to cores beyond the fabric are dropped.
        link.write(0, 0x2400 + 4 * 9, 4, 1);
        assert!(!link.barrier_dirty());
    }

    #[test]
    fn corelink_delivers_doorbells_at_the_barrier() {
        let shard0 = SharedSocBus::new(doorbell_population(0, 2));
        let shard1 = SharedSocBus::new(doorbell_population(1, 2));
        let mirror = {
            let mut bus = SocBus::new();
            bus.attach(Box::new(Uart::new(0x100)));
            bus.attach(Box::new(CoreLink::mirror(0x2000, 2)));
            bus
        };
        let mut arb = ShardArbiter::new(mirror, vec![shard0.clone(), shard1.clone()]);

        // Core 0 rings core 1 (value 42) and itself (value 7); core 1
        // rings core 0 (value 9). Nothing lands before the barrier.
        shard0.write(1, 0x2400 + 4, 4, 42);
        shard0.write(2, 0x2400, 4, 7);
        shard1.write(3, 0x2400, 4, 9);
        assert_eq!(shard1.read(4, 0x2800, 4), 0, "pre-barrier: no delivery");
        arb.exchange();
        assert_eq!(shard1.read(5, 0x2800, 4), 42, "core 0 → core 1");
        assert_eq!(shard0.read(5, 0x2800, 4), 7, "self-send delivered");
        assert_eq!(shard0.read(5, 0x2804, 4), 9, "core 1 → core 0");
        assert_eq!(shard1.read(5, 0x2804, 4), 0, "not addressed to core 1");

        // Idle epoch: outboxes drained, nothing re-delivered.
        arb.exchange();
        assert_eq!(shard1.read(6, 0x2800, 4), 42, "inbox latches");

        // Identity is construction state: a fabric-wide reset keeps
        // per-core ids while clearing the mailboxes.
        let initial = doorbell_population(0, 2).save_state();
        arb.reset(&initial);
        assert_eq!(shard1.read(7, 0x2000, 4), 1, "id survives reset");
        assert_eq!(shard1.read(7, 0x2800, 4), 0, "inbox cleared");
    }

    #[test]
    fn corelink_state_round_trips_without_identity() {
        let mut link = CoreLink::new(0, 1, 3);
        link.write(0, 0x400 + 8, 4, 5); // ring core 2
        let mut delivered = CoreLink::new(0, 2, 3);
        let d = link.barrier_delta().unwrap();
        delivered.apply_barrier(&d);
        assert_eq!(delivered.read(0, 0x800 + 4, 4), 5, "from core 1");
        let img = delivered.save_state();
        // Restoring core 2's image into another endpoint moves the
        // mailboxes but not the identity.
        let mut fresh = CoreLink::new(0, 0, 3);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.read(0, 0x0, 4), 0, "identity kept");
        assert_eq!(fresh.read(0, 0x804, 4), 5, "inbox restored");
        assert_eq!(fresh.save_state(), img);
        // Pending sends survive the round trip too.
        let img2 = link.save_state();
        let mut fresh2 = CoreLink::new(0, 1, 3);
        fresh2.restore_state(&img2).unwrap();
        assert_eq!(fresh2.barrier_delta(), link.barrier_delta());
        assert!(fresh2.barrier_dirty());
    }

    #[test]
    fn default_merge_is_last_differing_shard_wins() {
        let timer = Timer::new(0);
        let base = timer.save_state();
        let mut t1 = Timer::new(0);
        t1.write(0, 0x4, 4, 50);
        let img1 = t1.save_state();
        let unchanged = base.clone();
        assert_eq!(
            timer.merge_state(&base, &[&img1, &unchanged]),
            img1,
            "the changed shard provides the image"
        );
        assert_eq!(
            timer.merge_state(&base, &[&unchanged, &unchanged]),
            base,
            "no change keeps the canonical image"
        );
    }
}

/// Adapter that exposes a [`SharedSocBus`] as the golden model's
/// [`cabt_tricore::sim::IoDevice`], so the *same* peripherals can sit
/// behind the reference simulator and behind the translated platform.
/// SoC time is the golden core's own cycle count, delivered with every
/// access — on the golden side the core *is* the SoC clock, so timer
/// reads and UART timestamps land in exactly the clock domain the
/// synchronization device reproduces for translated runs.
#[derive(Debug)]
pub struct GoldenBridge {
    bus: SharedSocBus,
}

impl GoldenBridge {
    /// Wraps a shared bus.
    pub fn new(bus: SharedSocBus) -> Self {
        GoldenBridge { bus }
    }
}

impl cabt_tricore::sim::IoDevice for GoldenBridge {
    fn io_read(&mut self, cycle: u64, addr: u32, size: u32) -> u32 {
        self.bus.read(cycle, addr, size)
    }

    fn io_write(&mut self, cycle: u64, addr: u32, size: u32, value: u32) {
        self.bus.write(cycle, addr, size, value);
    }
}
