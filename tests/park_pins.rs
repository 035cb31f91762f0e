//! Pins of the park envelope's bytes.
//!
//! `Session::park` writes a versioned image whose layout
//! `docs/snapshot-format.md` documents and `PARK_VERSION` names. Images
//! are exchanged between processes and builds, so a change that moves
//! one byte of them without a version bump breaks resumes silently. The
//! digests below cover the images every registry program parks on every
//! pinned shape after 0, 7, 50 and 3000 retirements: one FNV-1a digest
//! per shape over its four images, in stop order. A shape whose program
//! cannot halt there is refused at build time, and is pinned as refused.

use cabt::prelude::*;
use cabt_exec::Fingerprint;

/// Retirement budgets the images are parked at, in order, on one
/// session.
const STOPS: [u64; 4] = [0, 7, 50, 3000];

/// The pinned shapes: [`Backend::all`], the two naive references, and
/// two-core shard sets of the golden and the translated model.
fn shapes() -> Vec<Backend> {
    let mut v = Backend::all();
    v.extend(
        [
            "golden:naive",
            "translated:cache:naive",
            "sharded-2x:golden",
            "sharded-2x:translated:cache",
        ]
        .map(|d| d.parse::<Backend>().expect("descriptor")),
    );
    v
}

/// The digest of `name`'s images on `backend`, or `None` when the
/// shape is refused.
fn park_digest(name: &str, backend: Backend) -> Option<u64> {
    let mut s = match SimBuilder::named(name).backend(backend).build() {
        Ok(s) => s,
        Err(SessionError::UnsupportedShape { .. }) => return None,
        Err(e) => panic!("{name} on {backend}: {e}"),
    };
    let mut fp = Fingerprint::new();
    for stop in STOPS {
        s.run(Limit::Retirements(stop))
            .unwrap_or_else(|e| panic!("{name} on {backend} to {stop}: {e}"));
        let image = s.park().expect("parks");
        fp.mix_u64(image.len() as u64);
        fp.mix_bytes(&image);
    }
    Some(fp.digest())
}

/// `(program, backend descriptor, digest)`; `None` marks a refused
/// shape.
#[rustfmt::skip]
const PINS: &[(&str, &str, Option<u64>)] = &[
    ("gcd", "golden", Some(0x67717d2329aba9bb)),
    ("gcd", "golden:trace", Some(0xe9fc5a09896f9e96)),
    ("gcd", "translated:functional", Some(0x97c1e1a77cb07c1d)),
    ("gcd", "translated:static", Some(0x2aaecf08c51bcd68)),
    ("gcd", "translated:branch-predict", Some(0xbce8274243817b90)),
    ("gcd", "translated:cache", Some(0x33f7fb0aca31c422)),
    ("gcd", "rtl", Some(0x1bfa93a9b2b0f4c1)),
    ("gcd", "golden:naive", Some(0xb71d30253096e51c)),
    ("gcd", "translated:cache:naive", Some(0x93b17158cb3f3f27)),
    ("gcd", "sharded-2x:golden", Some(0xea2e032a791c780c)),
    ("gcd", "sharded-2x:translated:cache", Some(0xda46ab495857317f)),
    ("dpcm", "golden", Some(0x0b9f92dfbc696ac6)),
    ("dpcm", "golden:trace", Some(0x3e070eaf48f255df)),
    ("dpcm", "translated:functional", Some(0xe37e1e3d9149834d)),
    ("dpcm", "translated:static", Some(0xe3d5e666dfbe4aa6)),
    ("dpcm", "translated:branch-predict", Some(0xd40a840c063c7a56)),
    ("dpcm", "translated:cache", Some(0xbb3f4f5ca79a1da0)),
    ("dpcm", "rtl", Some(0x9e860c07c4a2d417)),
    ("dpcm", "golden:naive", Some(0xf9ff270e3da28150)),
    ("dpcm", "translated:cache:naive", Some(0xbec532e28f7079c9)),
    ("dpcm", "sharded-2x:golden", Some(0x9aa4c2a6167066e9)),
    ("dpcm", "sharded-2x:translated:cache", Some(0xb41bdfc5418212d1)),
    ("fir", "golden", Some(0x1fa338288c06ed45)),
    ("fir", "golden:trace", Some(0xab876732df90a343)),
    ("fir", "translated:functional", Some(0x4f6a0814c152f55b)),
    ("fir", "translated:static", Some(0x7f2b10dc306666e2)),
    ("fir", "translated:branch-predict", Some(0x9d9e9cddb23d74d6)),
    ("fir", "translated:cache", Some(0x501c063c2c08e86e)),
    ("fir", "rtl", Some(0x5bd9ac31f18814d5)),
    ("fir", "golden:naive", Some(0x31152a50131abd1e)),
    ("fir", "translated:cache:naive", Some(0x4209e5df60d69a19)),
    ("fir", "sharded-2x:golden", Some(0x80fa62de40fcf0eb)),
    ("fir", "sharded-2x:translated:cache", Some(0xbcc23f7aed365db1)),
    ("ellip", "golden", Some(0xca493ff6cd1a7535)),
    ("ellip", "golden:trace", Some(0x2a8356002c4d6ce1)),
    ("ellip", "translated:functional", Some(0x90b876877faaabee)),
    ("ellip", "translated:static", Some(0x9aba21a99f9abd30)),
    ("ellip", "translated:branch-predict", Some(0x6be179d4d4a56ff8)),
    ("ellip", "translated:cache", Some(0x4dbed5da521c392a)),
    ("ellip", "rtl", Some(0x6d4d672c4541bbf3)),
    ("ellip", "golden:naive", Some(0xb55fb7be3d3c0396)),
    ("ellip", "translated:cache:naive", Some(0xc3c34a72d78f7503)),
    ("ellip", "sharded-2x:golden", Some(0x8fdb2e285a5c0d07)),
    ("ellip", "sharded-2x:translated:cache", Some(0xd6019823bf243b9a)),
    ("sieve", "golden", Some(0xc3b57777b91ecaa3)),
    ("sieve", "golden:trace", Some(0xdd74ee51f38640a0)),
    ("sieve", "translated:functional", Some(0xfdb10657f46c5106)),
    ("sieve", "translated:static", Some(0x4b05bf32bce260a4)),
    ("sieve", "translated:branch-predict", Some(0x3e3371505ea497f7)),
    ("sieve", "translated:cache", Some(0x61ab19c7b5921349)),
    ("sieve", "rtl", Some(0xcb63c2bc92935715)),
    ("sieve", "golden:naive", Some(0x8b19943c6706020e)),
    ("sieve", "translated:cache:naive", Some(0x0c9f665433b9613b)),
    ("sieve", "sharded-2x:golden", Some(0x9832435e1924484d)),
    ("sieve", "sharded-2x:translated:cache", Some(0x324ac89bc2af3ee1)),
    ("subband", "golden", Some(0xce226a825a9ded0a)),
    ("subband", "golden:trace", Some(0xdf94d60f8e562d00)),
    ("subband", "translated:functional", Some(0xaaad3f738f44a0c6)),
    ("subband", "translated:static", Some(0xc721512cd9df2735)),
    ("subband", "translated:branch-predict", Some(0x70e22472b2789e21)),
    ("subband", "translated:cache", Some(0xc722c17b6626f783)),
    ("subband", "rtl", Some(0x215fd447c6e3c5f1)),
    ("subband", "golden:naive", Some(0x9692e446a94031fd)),
    ("subband", "translated:cache:naive", Some(0x9d2757f7a62d4cda)),
    ("subband", "sharded-2x:golden", Some(0x2346d431a989e0b5)),
    ("subband", "sharded-2x:translated:cache", Some(0xbfc3093d97837d8d)),
    ("fibonacci", "golden", Some(0x264b12bc3ded4e83)),
    ("fibonacci", "golden:trace", Some(0x030bce6c6175f020)),
    ("fibonacci", "translated:functional", Some(0xa5b7bd078379861a)),
    ("fibonacci", "translated:static", Some(0x43862dae5b4c01a1)),
    ("fibonacci", "translated:branch-predict", Some(0x3b940fb268859395)),
    ("fibonacci", "translated:cache", Some(0x15dbf2d435bcc9c0)),
    ("fibonacci", "rtl", Some(0x28503a4cc33de7d3)),
    ("fibonacci", "golden:naive", Some(0x2137e2d70c3b1876)),
    ("fibonacci", "translated:cache:naive", Some(0x0f01657660d3a8b9)),
    ("fibonacci", "sharded-2x:golden", Some(0x93fecc31a7e5f3b9)),
    ("fibonacci", "sharded-2x:translated:cache", Some(0xf9b09196a40e8e7d)),
    ("producer_consumer", "golden", Some(0xd4715a11bc2480b1)),
    ("producer_consumer", "golden:trace", Some(0xb61882064c10245b)),
    ("producer_consumer", "translated:functional", Some(0x991c1e0f44d10653)),
    ("producer_consumer", "translated:static", Some(0x8c8f686f11f36ad1)),
    ("producer_consumer", "translated:branch-predict", Some(0xf6a75d7193883f00)),
    ("producer_consumer", "translated:cache", Some(0x390fc145b96d718b)),
    ("producer_consumer", "rtl", Some(0x192212df4895a3e0)),
    ("producer_consumer", "golden:naive", Some(0x3eb0520f73b0eb47)),
    ("producer_consumer", "translated:cache:naive", Some(0x1eaea86a6aea8078)),
    ("producer_consumer", "sharded-2x:golden", Some(0x272e15b6e88ab626)),
    ("producer_consumer", "sharded-2x:translated:cache", Some(0x486e2c3c91cc434c)),
    ("mailbox", "golden", None),
    ("mailbox", "golden:trace", None),
    ("mailbox", "translated:functional", None),
    ("mailbox", "translated:static", None),
    ("mailbox", "translated:branch-predict", None),
    ("mailbox", "translated:cache", None),
    ("mailbox", "rtl", None),
    ("mailbox", "golden:naive", None),
    ("mailbox", "translated:cache:naive", None),
    ("mailbox", "sharded-2x:golden", Some(0xebba11a9a1f16972)),
    ("mailbox", "sharded-2x:translated:cache", Some(0xb7a01dff96598c91)),
];

#[test]
fn park_images_match_their_pins() {
    let mut got = Vec::new();
    for name in cabt_workloads::names() {
        for backend in shapes() {
            got.push((name, backend.to_string(), park_digest(name, backend)));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, backend, digest)| {
            let digest = digest.map_or("None".to_string(), |d| format!("Some(0x{d:016x})"));
            format!("    (\"{name}\", \"{backend}\", {digest}),\n")
        })
        .collect();
    let want: Vec<(&str, String, Option<u64>)> = PINS
        .iter()
        .map(|&(name, backend, digest)| (name, backend.to_string(), digest))
        .collect();
    assert!(
        got == want,
        "park images moved; the table of this build is:\n{table}"
    );
}
