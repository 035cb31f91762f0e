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
    ("gcd", "golden", Some(0x17f8a8e857687267)),
    ("gcd", "golden:trace", Some(0x9a429b460316fff3)),
    ("gcd", "translated:functional", Some(0xa36d6f0c6a6a4539)),
    ("gcd", "translated:static", Some(0xfd8bd2ec4723480c)),
    ("gcd", "translated:branch-predict", Some(0xddb5170bb6a4f8d4)),
    ("gcd", "translated:cache", Some(0x0525b9550383a382)),
    ("gcd", "rtl", Some(0x187dbaad325f3dd9)),
    ("gcd", "golden:naive", Some(0x4c1e4cba953a3804)),
    ("gcd", "translated:cache:naive", Some(0x99ce9e51f793235f)),
    ("gcd", "sharded-2x:golden", Some(0xff9b42a3c6858168)),
    ("gcd", "sharded-2x:translated:cache", Some(0x1fe2f0ca397ce587)),
    ("dpcm", "golden", Some(0xae056d490ba6c49e)),
    ("dpcm", "golden:trace", Some(0xf51bd3f37557b75a)),
    ("dpcm", "translated:functional", Some(0xc4b0d702f51f217b)),
    ("dpcm", "translated:static", Some(0x12d320fcfaafaf4c)),
    ("dpcm", "translated:branch-predict", Some(0x6ceb78d2a85a4f7c)),
    ("dpcm", "translated:cache", Some(0x955136f6b80c4300)),
    ("dpcm", "rtl", Some(0x91639ffc3ee61acb)),
    ("dpcm", "golden:naive", Some(0xf8cfcfdffb17dc7c)),
    ("dpcm", "translated:cache:naive", Some(0xd35d4352a909ae01)),
    ("dpcm", "sharded-2x:golden", Some(0xbae1ff81cca1a03d)),
    ("dpcm", "sharded-2x:translated:cache", Some(0x2aa7d5a4430be815)),
    ("fir", "golden", Some(0x6cd1a9721d7e269f)),
    ("fir", "golden:trace", Some(0xfdcca00ed21738b9)),
    ("fir", "translated:functional", Some(0x3b6489b549863319)),
    ("fir", "translated:static", Some(0x7efc2e232fd4d7a6)),
    ("fir", "translated:branch-predict", Some(0xed27179ba8341dda)),
    ("fir", "translated:cache", Some(0x04d7a05de731a44a)),
    ("fir", "rtl", Some(0x5450d09463a035b5)),
    ("fir", "golden:naive", Some(0x2278b84d1a16e264)),
    ("fir", "translated:cache:naive", Some(0xefb416756b264795)),
    ("fir", "sharded-2x:golden", Some(0x4bbc50016d16e00b)),
    ("fir", "sharded-2x:translated:cache", Some(0xb2b53da0a77728e9)),
    ("ellip", "golden", Some(0x225a2fca0092b6f6)),
    ("ellip", "golden:trace", Some(0x768514584891b0f7)),
    ("ellip", "translated:functional", Some(0x7358b1de4f0ac6a0)),
    ("ellip", "translated:static", Some(0xb7c96449fa004b84)),
    ("ellip", "translated:branch-predict", Some(0xc4b1f0a8a9738e3a)),
    ("ellip", "translated:cache", Some(0x4710739ac2c65074)),
    ("ellip", "rtl", Some(0x03afb3083f526db3)),
    ("ellip", "golden:naive", Some(0xe103dc5885ec5b71)),
    ("ellip", "translated:cache:naive", Some(0xe4db3e30e76d6131)),
    ("ellip", "sharded-2x:golden", Some(0x244a1929617f2963)),
    ("ellip", "sharded-2x:translated:cache", Some(0x835884410ad71e9e)),
    ("sieve", "golden", Some(0xd285d5d754d79cbf)),
    ("sieve", "golden:trace", Some(0xa3c751313cf0ac80)),
    ("sieve", "translated:functional", Some(0xdb3bdf80fe4794ce)),
    ("sieve", "translated:static", Some(0xc3198ca2981f70c8)),
    ("sieve", "translated:branch-predict", Some(0x58b415257e72bccd)),
    ("sieve", "translated:cache", Some(0xf18b2e1c844499c5)),
    ("sieve", "rtl", Some(0x1d6aa23d81f8247d)),
    ("sieve", "golden:naive", Some(0xe92474597b29141a)),
    ("sieve", "translated:cache:naive", Some(0x26d0de2dede06a67)),
    ("sieve", "sharded-2x:golden", Some(0x8b749bcd1b7330f5)),
    ("sieve", "sharded-2x:translated:cache", Some(0x742b381b4c75cc25)),
    ("subband", "golden", Some(0x917d77a9d1e68e6a)),
    ("subband", "golden:trace", Some(0xb73bf4f4e2e26e00)),
    ("subband", "translated:functional", Some(0x1ff2f88b1d7e05fe)),
    ("subband", "translated:static", Some(0x91320b54e480e86f)),
    ("subband", "translated:branch-predict", Some(0x97726e7ade3dbdbf)),
    ("subband", "translated:cache", Some(0xcfc34fa44a84d0d3)),
    ("subband", "rtl", Some(0x9048632c5d5469d5)),
    ("subband", "golden:naive", Some(0xaa1589d6239d3b41)),
    ("subband", "translated:cache:naive", Some(0x9ecaf9e809bcfe32)),
    ("subband", "sharded-2x:golden", Some(0xaece2051661cf48d)),
    ("subband", "sharded-2x:translated:cache", Some(0x197fc4f91a2b862d)),
    ("fibonacci", "golden", Some(0x194c3402cde6c991)),
    ("fibonacci", "golden:trace", Some(0xd294a72746aa7e11)),
    ("fibonacci", "translated:functional", Some(0xbefaee33d597f66a)),
    ("fibonacci", "translated:static", Some(0x84b9cedf9dd39381)),
    ("fibonacci", "translated:branch-predict", Some(0x8eaff92c03be638f)),
    ("fibonacci", "translated:cache", Some(0x2e45441ace7ae270)),
    ("fibonacci", "rtl", Some(0x8e85501d58b9ca8b)),
    ("fibonacci", "golden:naive", Some(0x0ed377f9fde96cb0)),
    ("fibonacci", "translated:cache:naive", Some(0xa687cf9d3cd0d099)),
    ("fibonacci", "sharded-2x:golden", Some(0x23c2ae07df01eb9d)),
    ("fibonacci", "sharded-2x:translated:cache", Some(0x0e04b984e7e84391)),
    ("producer_consumer", "golden", Some(0xd3694462e0fffe54)),
    ("producer_consumer", "golden:trace", Some(0x6130e20ae6623252)),
    ("producer_consumer", "translated:functional", Some(0x39458881863b52ad)),
    ("producer_consumer", "translated:static", Some(0xd76ac04e1fb616a7)),
    ("producer_consumer", "translated:branch-predict", Some(0xc6158fcc91afe9d8)),
    ("producer_consumer", "translated:cache", Some(0xac688024eac6f0bb)),
    ("producer_consumer", "rtl", Some(0xee5a308150a1daf4)),
    ("producer_consumer", "golden:naive", Some(0xf852e4e235691f12)),
    ("producer_consumer", "translated:cache:naive", Some(0x46e9ce1a4fc30fa8)),
    ("producer_consumer", "sharded-2x:golden", Some(0xa114364191493db8)),
    ("producer_consumer", "sharded-2x:translated:cache", Some(0x7210d30878837aa0)),
    ("mailbox", "golden", None),
    ("mailbox", "golden:trace", None),
    ("mailbox", "translated:functional", None),
    ("mailbox", "translated:static", None),
    ("mailbox", "translated:branch-predict", None),
    ("mailbox", "translated:cache", None),
    ("mailbox", "rtl", None),
    ("mailbox", "golden:naive", None),
    ("mailbox", "translated:cache:naive", None),
    ("mailbox", "sharded-2x:golden", Some(0x765414a41b6f60fe)),
    ("mailbox", "sharded-2x:translated:cache", Some(0x2b7487c2d4f5e93d)),
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
