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
//! to bytes, and [`SocBus::save_state`] appends the whole bus — every
//! device's image in attachment order, then the transaction counter — to
//! a state image, which [`SocBus::load_state`] reads back. Session images
//! end with these bytes, so `save → run → load → run` replays device
//! behaviour bit-identically — no double-logged UART bytes, no stale
//! timer epochs. A device image that does not decode is a typed
//! [`CodecError`]; the session that loads it rolls back to its own image.
//!
//! For multi-core sharding every shard owns a *private* clone of the
//! device population behind its own [`SharedSocBus`] handle, and a
//! [`ShardArbiter`] reconciles the clones at every epoch barrier: each
//! device journals its own mutations ([`SocPeripheral::barrier_delta`]),
//! and the arbiter applies the concatenation of every shard's journal,
//! in fixed shard order, to every shard and to its canonical mirror
//! ([`SocPeripheral::apply_barrier`]). Because shards never touch each
//! other's devices *inside* an epoch, the protocol is
//! schedule-independent — the sequential and the pooled shard
//! schedulers produce bit-identical runs — and every type in the
//! exchange is `Send`, so shards can run on worker threads.

use cabt_isa::codec::{ByteReader, ByteWriter, CodecError};
use cabt_tricore::sim::IoDevice;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A device on the SoC bus. `Send` is a supertrait: buses cross thread
/// boundaries when shards run on worker threads, so devices must not
/// hold thread-bound state.
pub trait SocPeripheral: Send {
    /// `(first, last_exclusive)` address range served by this device.
    /// The window is fixed for the device's lifetime: [`SocBus::attach`]
    /// reads it once and routes by that copy.
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
    /// The device's barrier delta: its mutations since the last epoch
    /// barrier, in an encoding private to the device. Empty means
    /// "nothing changed"; the [`ShardArbiter`] skips a device whose
    /// delta is empty on every shard, so an idle device costs the
    /// barrier nothing but this call. Deltas are journals, not images —
    /// the UART ships its new bytes, the scratch RAM its written words
    /// — so a barrier costs O(epoch traffic), however long the run or
    /// large the device state has grown. The default describes a
    /// stateless device.
    fn barrier_delta(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Applies one barrier's merged delta: the concatenation of every
    /// shard's [`SocPeripheral::barrier_delta`] in shard order, the
    /// same bytes on every shard and on the arbiter's mirror. Applying
    /// it must leave every copy of the device in the same canonical
    /// state (the [`CoreLink`], whose inboxes are per-core, is the one
    /// exception) with an empty delta. The default pairs with the
    /// default `barrier_delta`: a stateless device has nothing to
    /// apply.
    fn apply_barrier(&mut self, merged: &[u8]) {
        let _ = merged;
    }
}

/// The whole `N`-byte records of a merged barrier delta, in shard
/// order, each as a reader over exactly one record. Every device's delta
/// is a run of fixed-width records; a trailing partial record is
/// skipped.
fn records<const N: usize>(merged: &[u8]) -> impl DoubleEndedIterator<Item = ByteReader<'_>> {
    merged.chunks_exact(N).map(ByteReader::new)
}

/// Reads of a [`records`] reader stay inside its record.
const WHOLE: &str = "a record reader holds one whole record";

/// A word-level SoC bus with positional device decoding. Unclaimed
/// addresses read zero and ignore writes (open bus) and are *not*
/// counted as transactions — `transactions` counts accesses a device
/// actually served.
#[derive(Default)]
pub struct SocBus {
    devices: Vec<Box<dyn SocPeripheral>>,
    /// `range()` of each device, read at attach, in attach order.
    windows: Vec<(u32, u32)>,
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
        self.windows.clone()
    }

    /// Attaches a peripheral to the bus. Where windows overlap, the
    /// device attached first serves the address.
    pub fn attach(&mut self, dev: Box<dyn SocPeripheral>) {
        self.windows.push(dev.range());
        self.devices.push(dev);
    }

    /// Index of the first attached device whose window holds `addr`.
    fn route(&self, addr: u32) -> Option<usize> {
        self.windows
            .iter()
            .position(|&(lo, hi)| (lo..hi).contains(&addr))
    }

    /// Number of transactions served so far (open-bus accesses are not
    /// served and not counted).
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Routes a read.
    pub fn read(&mut self, soc_cycle: u64, addr: u32, size: u32) -> u32 {
        let Some(i) = self.route(addr) else {
            return 0;
        };
        self.transactions += 1;
        self.devices[i].read(soc_cycle, addr, size)
    }

    /// Routes a write.
    pub fn write(&mut self, soc_cycle: u64, addr: u32, size: u32, value: u32) {
        if let Some(i) = self.route(addr) {
            self.transactions += 1;
            self.devices[i].write(soc_cycle, addr, size, value);
        }
    }

    /// Concatenated transmit logs of all logging peripherals on the bus.
    pub fn uart_log(&self) -> Vec<(u64, u8)> {
        self.devices.iter().flat_map(|d| d.transmit_log()).collect()
    }

    /// Appends the bus's state image: the device count, each device's
    /// image ([`SocPeripheral::save_state`]) as a `u64` length and its
    /// bytes, in attachment order, then the transaction counter.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        w.u64(self.devices.len() as u64);
        for dev in &self.devices {
            w.bytes(&dev.save_state());
        }
        w.u64(self.transactions);
    }

    /// Decodes a [`SocBus::save_state`] image and loads it into this bus.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for an image of a bus with another device count
    /// (state is positional), before any device changes, or for bytes
    /// that do not decode. The devices before a refused image keep their
    /// new images: the session that loads them rolls back.
    pub fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let n = r.count("bus device images", 8)?;
        if n != self.devices.len() {
            return Err(CodecError::BadLength {
                what: "bus device images",
                len: n as u64,
            });
        }
        for dev in &mut self.devices {
            dev.restore_state(r.bytes("device image")?)?;
        }
        self.transactions = r.u64()?;
        Ok(())
    }

    // --- device-granular accessors for the barrier exchange ------------

    /// Number of attached devices.
    fn device_count(&self) -> usize {
        self.devices.len()
    }

    fn device_delta(&self, i: usize) -> Vec<u8> {
        self.devices[i].barrier_delta()
    }

    fn device_apply_barrier(&mut self, i: usize, merged: &[u8]) {
        self.devices[i].apply_barrier(merged);
    }

    fn set_transactions(&mut self, transactions: u64) {
        self.transactions = transactions;
    }
}

/// A free-running timer clocked by generated SoC cycles.
///
/// Register map (offsets from base): `0x0` current count (read),
/// `0x4` compare value (read/write), `0x8` status — 1 once the count has
/// reached the compare value (read), `0xc` epoch reset (write).
///
/// The timer's configuration is one `(epoch, compare)` value, and its
/// barrier delta is that value whenever it differs from the value of
/// the last barrier. The merged delta's last entry wins, so at a
/// barrier the highest-numbered shard whose timer changed reconfigures
/// every shard — a shard that writes the canonical value back changes
/// nothing.
#[derive(Debug)]
pub struct Timer {
    base: u32,
    epoch: u64,
    compare: u32,
    /// `(epoch, compare)` as of the last barrier. Part of the saved
    /// state, so a mid-epoch snapshot resumes knowing whether its
    /// configuration is still pending exchange.
    exchanged: (u64, u32),
}

impl Timer {
    /// A timer at `base`.
    pub fn new(base: u32) -> Self {
        Timer {
            base,
            epoch: 0,
            compare: u32::MAX,
            exchanged: (0, u32::MAX),
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
            0x4 => self.compare = value,
            0xc => self.epoch = soc_cycle,
            _ => {}
        }
    }

    /// State image: the current `(epoch, compare)`, then the one of
    /// the last barrier (24 bytes).
    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        let mut w = ByteWriter::new(&mut out);
        for (epoch, compare) in [(self.epoch, self.compare), self.exchanged] {
            w.u64(epoch);
            w.u32(compare);
        }
        out
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(state);
        let (epoch, compare) = (r.u64()?, r.u32()?);
        let exchanged = (r.u64()?, r.u32()?);
        r.finish()?;
        self.epoch = epoch;
        self.compare = compare;
        self.exchanged = exchanged;
        Ok(())
    }

    /// The 12-byte `(epoch, compare)` image if it changed since the
    /// last barrier.
    fn barrier_delta(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if (self.epoch, self.compare) != self.exchanged {
            let mut w = ByteWriter::new(&mut out);
            w.u64(self.epoch);
            w.u32(self.compare);
        }
        out
    }

    /// The last shard's image wins: only the last record is read.
    fn apply_barrier(&mut self, merged: &[u8]) {
        if let Some(mut r) = records::<12>(merged).next_back() {
            let last = (r.u64().expect(WHOLE), r.u32().expect(WHOLE));
            (self.epoch, self.compare) = last;
            self.exchanged = last;
        }
    }
}

/// A transmit-only UART that logs bytes with their SoC-cycle timestamps.
///
/// Register map: `0x0` data (write to transmit), `0x4` status (reads 1 —
/// always ready).
///
/// The log is append-only, so its barrier delta is only the bytes
/// transmitted *during the epoch* (`exchanged` marks the canonical
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

    fn encode_entries(entries: &[(u64, u8)], w: &mut ByteWriter<'_>) {
        for &(ts, byte) in entries {
            w.u64(ts);
            w.u8(byte);
        }
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
        let mut w = ByteWriter::new(&mut out);
        w.u64(self.exchanged as u64);
        Self::encode_entries(&self.log, &mut w);
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

    /// O(epoch) barrier exchange: only the entries past the canonical
    /// prefix travel.
    fn barrier_delta(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 * (self.log.len() - self.exchanged));
        Self::encode_entries(&self.log[self.exchanged..], &mut ByteWriter::new(&mut out));
        out
    }

    fn apply_barrier(&mut self, merged: &[u8]) {
        self.log.truncate(self.exchanged);
        for mut r in records::<9>(merged) {
            self.log.push((r.u64().expect(WHOLE), r.u8().expect(WHOLE)));
        }
        self.exchanged = self.log.len();
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

    /// State image: an 8-byte journal-length header, the journaled
    /// addresses (ascending), then every `(addr, word)` pair sorted by
    /// address.
    fn save_state(&self) -> Vec<u8> {
        // Sorted by address: HashMap iteration order must not leak into
        // the snapshot image (replays compare state bytes for equality).
        let mut entries: Vec<(u32, u32)> = self.words.iter().map(|(&a, &w)| (a, w)).collect();
        entries.sort_unstable();
        let mut out = Vec::with_capacity(8 + 4 * self.journal.len() + 8 * entries.len());
        let mut w = ByteWriter::new(&mut out);
        w.u64(self.journal.len() as u64);
        for &addr in &self.journal {
            w.u32(addr);
        }
        for (addr, word) in entries {
            w.u32(addr);
            w.u32(word);
        }
        out
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(state);
        let njournal = r.count("scratch-RAM journal", 4)?;
        let journal = (0..njournal).map(|_| r.u32()).collect::<Result<_, _>>()?;
        let mut words = HashMap::new();
        while r.remaining() > 0 {
            words.insert(r.u32()?, r.u32()?);
        }
        (self.words, self.journal) = (words, journal);
        Ok(())
    }

    /// O(traffic) barrier exchange: only the journaled `(addr, word)`
    /// pairs travel.
    fn barrier_delta(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * self.journal.len());
        let mut w = ByteWriter::new(&mut out);
        for &addr in &self.journal {
            w.u32(addr);
            w.u32(self.words.get(&addr).copied().unwrap_or(0));
        }
        out
    }

    fn apply_barrier(&mut self, merged: &[u8]) {
        for mut r in records::<8>(merged) {
            self.words
                .insert(r.u32().expect(WHOLE), r.u32().expect(WHOLE));
        }
        self.journal.clear();
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
        let mut w = ByteWriter::new(&mut out);
        w.u64(self.inbox.len() as u64);
        for &word in &self.inbox {
            w.u32(word);
        }
        w.u64(self.outbox.len() as u64);
        for &(src, target, value) in &self.outbox {
            w.u32(src);
            w.u32(target);
            w.u32(value);
        }
        out
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(state);
        let ninbox = r.count("CoreLink inbox", 4)?;
        // One mailbox per core of this fabric: an image parked on a
        // fabric of another width would read phantom cores or drop
        // doorbells from real ones.
        if ninbox != self.ncores as usize {
            return Err(CodecError::BadLength {
                what: "CoreLink inbox",
                len: ninbox as u64,
            });
        }
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
    fn barrier_delta(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 * self.outbox.len());
        let mut w = ByteWriter::new(&mut out);
        for &(src, target, value) in &self.outbox {
            w.u32(src);
            w.u32(target);
            w.u32(value);
        }
        out
    }

    /// Delivery: every send of the epoch, in shard order; each endpoint
    /// keeps only the triples addressed to its own id (on two sends
    /// from one source, the later one in shard-merge order wins).
    fn apply_barrier(&mut self, merged: &[u8]) {
        for mut r in records::<12>(merged) {
            let src = r.u32().expect(WHOLE);
            let (target, value) = (r.u32().expect(WHOLE), r.u32().expect(WHOLE));
            if target == self.core_id {
                if let Some(slot) = self.inbox.get_mut(src as usize) {
                    *slot = value;
                }
            }
        }
        self.outbox.clear();
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
/// A golden engine does not lock per access: it enters its
/// [`GoldenBridge`] once per run slice and holds this lock for the
/// whole slice (translated platforms still lock once per access).
/// While a slice runs, every other method on any clone of the handle
/// blocks until the slice ends; the shard arbiter touches buses only
/// at epoch barriers, between slices, so it never waits on one.
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
    /// saving any state image — state is positional.
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

    /// Appends the bus's state image ([`SocBus::save_state`]).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.lock().save_state(out);
    }

    /// Loads a state image into the bus ([`SocBus::load_state`]).
    ///
    /// # Errors
    ///
    /// See [`SocBus::load_state`].
    pub fn load_state(&self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.lock().load_state(r)
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

    fn set_transactions(&self, transactions: u64) {
        self.lock().set_transactions(transactions);
    }
}

/// The epoch-barrier arbiter of a sharded run. Every shard owns a
/// *private* [`SharedSocBus`] with an identical device population;
/// within an epoch each shard talks only to its own devices (so shards
/// can run concurrently on worker threads), and at the barrier the
/// arbiter [`exchanges`](ShardArbiter::exchange) the devices' journals:
/// each device's per-shard [`SocPeripheral::barrier_delta`]s,
/// concatenated in fixed shard order, are applied to every shard's
/// bus. The merged bytes are a pure function of the shard states, so a
/// run's device behaviour is identical whatever host schedule executed
/// the epoch — which is exactly what makes the sequential and pooled
/// shard schedulers bit-identical.
///
/// The arbiter holds the canonical state in a private *mirror* bus (a
/// device population never attached to any engine), which receives
/// every merged delta too; mid-epoch aggregate views
/// ([`ShardArbiter::transactions`], [`ShardArbiter::uart_log`])
/// combine the mirror with the per-shard traffic since the last
/// barrier.
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

    /// Runs the epoch barrier: reconciles every device across the
    /// shard buses and the canonical mirror, then returns the number
    /// of bus transactions served during the epoch that just ended.
    ///
    /// One pass per device: collect its delta from every shard, in
    /// shard order; if all are empty the device is idle and skipped,
    /// otherwise the concatenation is applied to the mirror and to
    /// every shard. Cost is O(epoch traffic) plus one delta call per
    /// device and shard, independent of accumulated history — a long
    /// run's barrier does not slow down as the UART log grows.
    pub fn exchange(&mut self) -> u64 {
        let base_transactions = self.mirror.transactions();
        let served: u64 = self
            .buses
            .iter()
            .map(|b| b.transactions() - base_transactions)
            .sum();
        for i in 0..self.mirror.device_count() {
            let mut merged = Vec::new();
            for bus in &self.buses {
                merged.extend_from_slice(&bus.device_delta(i));
            }
            if merged.is_empty() {
                continue;
            }
            self.mirror.device_apply_barrier(i, &merged);
            for bus in &self.buses {
                bus.device_apply_barrier(i, &merged);
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

    /// Appends the canonical device-state image of the last epoch
    /// boundary ([`SocBus::save_state`]) — what a session image, a shard
    /// handed to another host, or an external checkpoint carries.
    pub fn save_canonical(&self, out: &mut Vec<u8>) {
        self.mirror.save_state(out);
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

    /// Resets the whole device fabric to `initial`, a state image saved
    /// from a bus of this population: the mirror and every shard bus
    /// load it and the epoch counter is cleared.
    pub fn reset(&mut self, initial: &[u8]) {
        let expect = "the initial image was saved from this fabric";
        self.mirror
            .load_state(&mut ByteReader::new(initial))
            .expect(expect);
        for bus in &self.buses {
            bus.load_state(&mut ByteReader::new(initial)).expect(expect);
        }
        self.epochs = 0;
    }

    /// Checks that every shard bus extends the canonical state: it has
    /// served no fewer transactions and logged no fewer UART bytes than
    /// the mirror. A shard image parked before the last barrier fails
    /// it; [`ShardArbiter::exchange`] and the aggregate views would
    /// count such a bus's traffic below zero.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadLength`] naming the count that falls short.
    pub fn check_buses(&self) -> Result<(), CodecError> {
        let (transactions, log) = (self.mirror.transactions(), self.mirror.uart_log().len());
        for bus in self.buses.iter().map(SharedSocBus::lock) {
            let (what, len) = if bus.transactions() < transactions {
                ("shard bus transactions", bus.transactions())
            } else if bus.uart_log().len() < log {
                ("shard UART log", bus.uart_log().len() as u64)
            } else {
                continue;
            };
            return Err(CodecError::BadLength { what, len });
        }
        Ok(())
    }

    /// Loads the canonical state and sets the epoch counter — the
    /// load-side pair of [`ShardArbiter::save_canonical`]. The per-shard
    /// buses are loaded by their owners (each shard's image carries its
    /// own possibly mid-epoch device image); this only re-seats the
    /// canonical mirror.
    ///
    /// # Errors
    ///
    /// See [`SocBus::load_state`]; the epoch counter is kept then.
    pub fn load_canonical(
        &mut self,
        r: &mut ByteReader<'_>,
        epochs: u64,
    ) -> Result<(), CodecError> {
        self.mirror.load_state(r)?;
        self.epochs = epochs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The state image `save` appends.
    fn image(save: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        save(&mut out);
        out
    }

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
    fn first_attached_device_wins_an_overlap() {
        let mut bus = SocBus::new();
        bus.attach(Box::new(Timer::new(0x1000)));
        bus.attach(Box::new(ScratchRam::new(0x1000, 0x100)));
        bus.write(0, 0x1004, 4, 77);
        bus.write(0, 0x1008, 4, 9);
        bus.write(0, 0x1020, 4, 5);
        assert_eq!(bus.read(0, 0x1004, 4), 77, "timer compare register");
        assert_eq!(bus.read(0, 0x1008, 4), 0, "timer status, not RAM");
        assert_eq!(bus.read(0, 0x1020, 4), 5, "RAM past the timer window");
        assert_eq!(bus.device_ranges(), [(0x1000, 0x1010), (0x1000, 0x1100)]);
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
        assert_eq!(u.transmit_log(), &[(10, b'A'), (20, b'B')]);
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
        assert_eq!(fresh.transmit_log(), u.transmit_log());
        // Restoring an earlier image truncates later transmissions —
        // the double-log fix.
        u.write(1000, 0, 4, b'Z' as u32);
        u.restore_state(&img).unwrap();
        assert_eq!(u.transmit_log().len(), 2);
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
        let img = image(|o| bus.save_state(o));

        bus.write(20, 0x100, 4, b'?' as u32);
        bus.write(20, 0x204, 4, 1);
        assert_eq!(bus.uart_log().len(), 2);

        bus.load_state(&mut ByteReader::new(&img)).unwrap();
        assert_eq!(bus.uart_log(), vec![(7, b'!')]);
        assert_eq!(bus.read(10, 0x204, 4), 0, "later write rolled back");
        assert_eq!(bus.read(10, 0x0, 4), 1, "timer epoch restored (10 - 9)");
        assert_eq!(img, {
            // transactions counter restored too (the reads above advanced it)
            let mut b2 = SocBus::new();
            b2.attach(Box::new(Timer::new(0x0)));
            b2.attach(Box::new(Uart::new(0x100)));
            b2.attach(Box::new(ScratchRam::new(0x200, 0x100)));
            b2.load_state(&mut ByteReader::new(&img)).unwrap();
            image(|o| b2.save_state(o))
        });
    }

    #[test]
    fn bus_state_rejects_mismatched_population() {
        let mut a = SocBus::new();
        a.attach(Box::new(Timer::new(0)));
        let img = image(|o| a.save_state(o));
        let mut b = SocBus::new();
        b.attach(Box::new(Timer::new(0)));
        b.attach(Box::new(Uart::new(0x100)));
        let before = image(|o| b.save_state(o));
        assert!(matches!(
            b.load_state(&mut ByteReader::new(&img)),
            Err(CodecError::BadLength { len: 1, .. })
        ));
        assert_eq!(
            image(|o| b.save_state(o)),
            before,
            "a refused image changes nothing"
        );
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
        let initial = image(|o| shard0.save_state(o));
        let mut arb = ShardArbiter::new(arbiter_population(), vec![shard0.clone(), shard1.clone()]);
        assert_eq!(arb.epochs(), 0);
        assert_eq!(image(|o| arb.save_canonical(o)), initial);

        // Epoch 1: shard 0 fills the mailbox, shard 1 transmits.
        shard0.write(5, 0x200, 4, 99);
        shard1.write(7, 0x100, 4, b'b' as u32);
        assert_eq!(arb.transactions(), 2, "mid-epoch deltas are aggregated");
        assert_eq!(arb.uart_log(), vec![(7, b'b')]);
        assert_eq!(arb.exchange(), 2, "two transactions this epoch");
        assert_eq!(arb.epochs(), 1);
        assert_eq!(
            image(|o| arb.save_canonical(o)),
            image(|o| shard0.save_state(o))
        );

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
        assert_eq!(image(|o| arb.save_canonical(o)), initial);
        assert_eq!(
            image(|o| shard1.save_state(o)),
            initial,
            "reset loads every bus"
        );
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
        let d = u.barrier_delta();
        assert_eq!(d.len(), 18, "two unexchanged entries");
        u.apply_barrier(&d);
        assert!(
            u.barrier_delta().is_empty(),
            "nothing pending after the barrier"
        );
        // Only traffic of the new epoch travels, however long the log.
        u.write(3, 0, 4, b'c' as u32);
        assert_eq!(u.barrier_delta().len(), 9);
        assert_eq!(u.transmit_log().len(), 3, "history intact");

        // The exchanged mark survives a save/restore round trip.
        let img = u.save_state();
        let mut fresh = Uart::new(0);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.barrier_delta().len(), 9);
        assert_eq!(fresh.transmit_log(), u.transmit_log());
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
                image(|o| arb.save_canonical(o)),
                image(|o| shard0.save_state(o)),
                "epoch {epoch}: broadcast state"
            );
            assert_eq!(
                image(|o| shard0.save_state(o)),
                image(|o| shard1.save_state(o))
            );
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
        let d = r.barrier_delta();
        assert_eq!(d.len(), 16, "two journaled words");
        r.apply_barrier(&d);
        assert!(
            r.barrier_delta().is_empty(),
            "journal cleared at the barrier"
        );
        // Only the epoch's writes travel, however full the RAM.
        r.write(0, 0x10, 4, 8);
        assert_eq!(r.barrier_delta().len(), 8);
        assert_eq!(r.read(0, 0x20, 4), 9, "contents intact");

        // The journal survives a save/restore round trip (a mid-epoch
        // snapshot resumes with its writes still pending exchange).
        let img = r.save_state();
        let mut fresh = ScratchRam::new(0, 0x100);
        fresh.restore_state(&img).unwrap();
        assert_eq!(fresh.barrier_delta(), r.barrier_delta());
        assert_eq!(fresh.save_state(), img);
    }

    /// Three shard buses over [`arbiter_population`] and their
    /// arbiter.
    fn three_shards() -> (Vec<SharedSocBus>, ShardArbiter) {
        let shards: Vec<SharedSocBus> = (0..3)
            .map(|_| SharedSocBus::new(arbiter_population()))
            .collect();
        let arb = ShardArbiter::new(arbiter_population(), shards.clone());
        (shards, arb)
    }

    /// The timer compare value every shard and the mirror agree on.
    fn agreed_compare(shards: &[SharedSocBus], arb: &ShardArbiter) -> u32 {
        let mirror = image(|o| arb.save_canonical(o));
        for bus in shards {
            assert_eq!(
                image(|o| bus.save_state(o)),
                mirror,
                "every shard holds the canonical image"
            );
        }
        shards[0].read(0, 0x4, 4)
    }

    #[test]
    fn timer_barrier_highest_changed_shard_wins() {
        let (shards, mut arb) = three_shards();
        shards[1].write(0, 0x4, 4, 20);
        shards[0].write(0, 0x4, 4, 10);
        arb.exchange();
        assert_eq!(
            agreed_compare(&shards, &arb),
            20,
            "shard 1 outranks shard 0"
        );

        // An epoch reset is a change too; shard 2 outranks both.
        shards[0].write(0, 0x4, 4, 30);
        shards[2].write(50, 0xc, 4, 0);
        arb.exchange();
        assert_eq!(
            agreed_compare(&shards, &arb),
            20,
            "shard 2's image wins whole"
        );
        assert_eq!(shards[1].read(60, 0x0, 4), 10, "epoch from shard 2");

        // After its barrier a timer has nothing pending.
        let mut t = Timer::new(0);
        t.write(0, 0x4, 4, 5);
        t.apply_barrier(&t.barrier_delta());
        assert!(
            t.barrier_delta().is_empty(),
            "nothing pending after a barrier"
        );
    }

    #[test]
    fn timer_barrier_ignores_a_shard_that_restores_the_canonical_value() {
        let (shards, mut arb) = three_shards();
        shards[0].write(0, 0x4, 4, 30);
        // Shard 2 reconfigures and then writes the canonical value
        // back: its timer is unchanged, so shard 0's change stands.
        shards[2].write(0, 0x4, 4, 99);
        shards[2].write(0, 0x4, 4, u32::MAX);
        arb.exchange();
        assert_eq!(agreed_compare(&shards, &arb), 30);
    }

    #[test]
    fn timer_barrier_base_survives_save_and_restore() {
        let (shards, mut arb) = three_shards();
        shards[0].write(0, 0x4, 4, 10);
        arb.exchange();
        // Mid-epoch: shard 0 has a pending change, shard 2 none. A
        // round trip through the state image must keep both facts —
        // a restored shard 2 that counted as changed would override
        // shard 0 with the old value.
        shards[0].write(0, 0x4, 4, 40);
        for bus in &shards {
            let img = image(|o| bus.save_state(o));
            // The device count, then the timer image's length.
            assert_eq!(
                img[8..16],
                24u64.to_le_bytes(),
                "timer image carries its base"
            );
            bus.load_state(&mut ByteReader::new(&img)).unwrap();
        }
        arb.exchange();
        assert_eq!(agreed_compare(&shards, &arb), 40);

        let mut t = Timer::new(0);
        t.write(0, 0x4, 4, 7);
        let mut fresh = Timer::new(0);
        fresh.restore_state(&t.save_state()).unwrap();
        assert_eq!(
            fresh.barrier_delta(),
            t.barrier_delta(),
            "pending change kept"
        );
        t.apply_barrier(&t.barrier_delta());
        fresh.restore_state(&t.save_state()).unwrap();
        assert!(fresh.barrier_delta().is_empty(), "exchanged base kept");
    }

    /// A device whose barrier applications are observable, for pinning
    /// the arbiter's idle-device skip.
    struct Probe {
        applies: Arc<std::sync::atomic::AtomicUsize>,
        pending: Arc<std::sync::atomic::AtomicBool>,
    }

    impl SocPeripheral for Probe {
        fn range(&self) -> (u32, u32) {
            (0x9000, 0x9010)
        }
        fn read(&mut self, _c: u64, _a: u32, _s: u32) -> u32 {
            0
        }
        fn write(&mut self, _c: u64, _a: u32, _s: u32, _v: u32) {}
        fn barrier_delta(&self) -> Vec<u8> {
            let pending = self.pending.load(std::sync::atomic::Ordering::Relaxed);
            if pending {
                vec![1]
            } else {
                Vec::new()
            }
        }
        fn apply_barrier(&mut self, _merged: &[u8]) {
            use std::sync::atomic::Ordering;
            self.applies.fetch_add(1, Ordering::Relaxed);
            self.pending.store(false, Ordering::Relaxed);
        }
    }

    #[test]
    fn arbiter_skips_devices_without_a_delta() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let applies = Arc::new(AtomicUsize::new(0));
        let pending = Arc::new(AtomicBool::new(false));
        let population = || {
            let mut bus = SocBus::new();
            bus.attach(Box::new(Probe {
                applies: Arc::clone(&applies),
                pending: Arc::clone(&pending),
            }));
            bus
        };
        let shard0 = SharedSocBus::new(population());
        let shard1 = SharedSocBus::new(population());
        let mut arb = ShardArbiter::new(population(), vec![shard0, shard1]);
        arb.exchange();
        assert_eq!(
            applies.load(Ordering::Relaxed),
            0,
            "an idle device is not applied anywhere"
        );
        pending.store(true, Ordering::Relaxed);
        arb.exchange();
        assert_eq!(
            applies.load(Ordering::Relaxed),
            3,
            "a changed device is applied on the mirror and both shards"
        );
        assert!(!pending.load(Ordering::Relaxed), "nothing pending after");
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
        assert!(link.barrier_delta().is_empty());
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
        let initial = image(|o| doorbell_population(0, 2).save_state(o));
        arb.reset(&initial);
        assert_eq!(shard1.read(7, 0x2000, 4), 1, "id survives reset");
        assert_eq!(shard1.read(7, 0x2800, 4), 0, "inbox cleared");
    }

    #[test]
    fn corelink_state_round_trips_without_identity() {
        let mut link = CoreLink::new(0, 1, 3);
        link.write(0, 0x400 + 8, 4, 5); // ring core 2
        let mut delivered = CoreLink::new(0, 2, 3);
        let d = link.barrier_delta();
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
        assert!(!fresh2.barrier_delta().is_empty());
    }
}

/// Adapter that exposes a [`SharedSocBus`] as the golden model's
/// [`cabt_tricore::sim::IoDevice`], so the *same* peripherals can sit
/// behind the reference simulator and behind the translated platform.
/// SoC time is the golden core's own cycle count, delivered with every
/// access — on the golden side the core *is* the SoC clock, so timer
/// reads and UART timestamps land in exactly the clock domain the
/// synchronization device reproduces for translated runs.
///
/// The engine enters the bridge once per run slice
/// ([`IoDevice::enter`]): the bridge takes the bus lock there and
/// hands the engine the locked [`SocBus`], which serves every access
/// of the slice without locking again. The running engine holds the bus for the whole slice, so any
/// other holder of the handle blocks until the slice ends rather than
/// interleaving with it access by access. A golden shard's round slice
/// is one slice, so it takes its bus lock once per round.
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

impl IoDevice for GoldenBridge {
    fn io_read(&mut self, cycle: u64, addr: u32, size: u32) -> u32 {
        self.bus.read(cycle, addr, size)
    }

    fn io_write(&mut self, cycle: u64, addr: u32, size: u32, value: u32) {
        self.bus.write(cycle, addr, size, value);
    }

    /// Takes the bus lock once and serves the whole slice from the
    /// locked bus; the lock is released when `run` returns.
    fn enter(&mut self, run: &mut dyn FnMut(&mut dyn IoDevice)) {
        run(&mut *self.bus.lock());
    }
}

/// A bare bus is a golden-model device too: what [`GoldenBridge`]
/// hands a running engine for the slice it holds the lock.
impl IoDevice for SocBus {
    fn io_read(&mut self, cycle: u64, addr: u32, size: u32) -> u32 {
        self.read(cycle, addr, size)
    }

    fn io_write(&mut self, cycle: u64, addr: u32, size: u32, value: u32) {
        self.write(cycle, addr, size, value);
    }

    fn enter(&mut self, run: &mut dyn FnMut(&mut dyn IoDevice)) {
        run(self);
    }
}
