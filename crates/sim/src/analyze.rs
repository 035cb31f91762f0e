//! The session-layer face of the static analyzer: assembles the
//! pieces the framework itself cannot know — the guest memory map
//! (loaded image + stack + the MMIO windows the default platform
//! actually claims) and the TriCore lowering — and runs every shipped
//! analysis over a workload before any backend executes it.
//!
//! Two consumers sit on top of this module: the `cabt-analyze` binary
//! and the `analyze` verb of `fleet-server`.

use cabt_exec::analyze::{analyze_program, MemMap};
use cabt_isa::elf::{ElfFile, SectionKind};
use cabt_tricore::analyze::{lower_elf, SHARD_ID_REG};

pub use cabt_exec::analyze::{AnalysisReport, Finding, FindingKind};

use crate::SessionError;

/// Stack window granted to the guest: the loader seeds `%a10` to
/// `0xd003_0000` and stacks grow down; a generous region around the
/// seed keeps frame stores and red-zone accesses legal.
pub const STACK_RANGE: (u32, u32) = (0xd000_0000, 0xd004_0000);

/// The valid-address map of a loaded guest: every ELF section's span,
/// the stack window, and each MMIO window a default-platform device
/// claims. A provably-constant store outside all of these can only hit
/// open bus.
pub fn guest_mem_map(elf: &ElfFile) -> MemMap {
    let mut map = MemMap::default();
    for s in &elf.sections {
        let label = match s.kind {
            SectionKind::Text => "text",
            SectionKind::Data => "data",
            SectionKind::Bss => "bss",
        };
        map.add(s.addr, s.addr.saturating_add(s.size), label);
    }
    map.add(STACK_RANGE.0, STACK_RANGE.1, "stack");
    for (start, end) in cabt_platform::default_soc_bus().device_ranges() {
        map.add(start, end, "mmio");
    }
    map
}

/// Runs the full analysis pass over an ELF image: reachability,
/// use-before-def (`%d15` whitelisted — the fleet loader seeds it as
/// the shard id), constant-store checking against [`guest_mem_map`],
/// static trace prediction with side-exit verification, and
/// unbounded-recursion detection.
///
/// A program whose entry point lies outside the decoded table (fuzz
/// generators and hand-built images produce these) is *skipped*, not
/// analyzed: the report comes back empty with
/// [`AnalysisReport::skipped`] set, so front ends emit a warning row
/// instead of either panicking or passing it silently.
///
/// # Errors
///
/// [`SessionError::Golden`] when the image's text sections do not
/// decode.
pub fn analyze_elf(elf: &ElfFile) -> Result<AnalysisReport, SessionError> {
    let prog = lower_elf(elf)?;
    if prog.entries.is_empty() {
        return Ok(AnalysisReport::skip("entry outside decoded table"));
    }
    let mem = guest_mem_map(elf);
    Ok(analyze_program(&prog, &mem, 1u64 << SHARD_ID_REG))
}

/// [`analyze_elf`] over a named `cabt-workloads` entry.
///
/// # Errors
///
/// [`SessionError::UnknownWorkload`] for unknown names, plus
/// everything [`analyze_elf`] raises.
pub fn analyze_named(name: &str) -> Result<AnalysisReport, SessionError> {
    let elf = cabt_workloads::by_name(name)
        .ok_or_else(|| SessionError::UnknownWorkload(name.to_string()))?
        .elf()?;
    analyze_elf(&elf)
}

/// [`analyze_elf`] over a known-bad corpus entry
/// ([`cabt_workloads::known_bad_by_name`]).
///
/// # Errors
///
/// [`SessionError::UnknownWorkload`] for unknown names, plus
/// everything [`analyze_elf`] raises.
pub fn analyze_known_bad(name: &str) -> Result<AnalysisReport, SessionError> {
    let elf = cabt_workloads::known_bad_by_name(name)
        .ok_or_else(|| SessionError::UnknownWorkload(name.to_string()))?
        .elf()?;
    analyze_elf(&elf)
}

/// Renders a report as one JSON object (used verbatim by the
/// `cabt-analyze` binary and the `fleet-server` `analyze` verb):
/// `{"target":...,"clean":...,"blocks":N,"loops":N,`
/// `"predicted_traces":N,"findings":[{kind,pc,unit,block,message},…]}`.
/// Skipped reports add a `"skipped":"reason"` member — the warning
/// row for programs the analyzer declined (entry outside the decoded
/// table).
pub fn report_json(target: &str, report: &AnalysisReport) -> String {
    if let Some(reason) = report.skipped {
        return format!(
            "{{\"target\":{},\"clean\":false,\"skipped\":{}}}",
            json_str(target),
            json_str(reason)
        );
    }
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "{{\"kind\":{},\"pc\":\"{:#x}\",\"unit\":{},\"block\":{},\"message\":{}}}",
                json_str(f.kind.name()),
                f.pc,
                f.unit,
                f.block,
                json_str(&f.message),
            )
        })
        .collect();
    format!(
        "{{\"target\":{},\"clean\":{},\"blocks\":{},\"loops\":{},\"predicted_traces\":{},\"findings\":[{}]}}",
        json_str(target),
        report.is_clean(),
        report.blocks,
        report.loops.len(),
        report.predicted.len(),
        findings.join(",")
    )
}

/// Minimal JSON string quoting: the one encoder of the analyzer's
/// reports and the fleet-server's reply rows.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundled_workloads_analyze_clean() {
        for w in cabt_workloads::table2_set() {
            let report = analyze_named(w.name).unwrap();
            assert!(
                report.is_clean(),
                "{} not clean: {:?}",
                w.name,
                report.findings
            );
            assert!(report.blocks > 0);
        }
    }

    #[test]
    fn known_bad_corpus_yields_exactly_its_expected_finding() {
        for k in cabt_workloads::known_bad_set() {
            let report = analyze_known_bad(k.name).unwrap();
            assert_eq!(
                report.findings.len(),
                1,
                "{} must produce exactly one finding, got {:?}",
                k.name,
                report.findings
            );
            assert_eq!(
                report.findings[0].kind.name(),
                k.expected_finding,
                "{}: {}",
                k.name,
                report.findings[0].message
            );
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        assert!(matches!(
            analyze_named("no-such-workload"),
            Err(SessionError::UnknownWorkload(_))
        ));
    }

    #[test]
    fn entry_outside_decoded_table_is_skipped_with_a_warning_row() {
        let mut elf = cabt_workloads::gcd(4, 1).elf().unwrap();
        // Point the entry between decoded instructions: no analysis
        // fact is grounded, so the pass declines instead of reporting
        // every block unreachable (or worse, a clean pass).
        elf.entry = elf.entry.wrapping_add(2);
        let report = analyze_elf(&elf).unwrap();
        assert_eq!(report.skipped, Some("entry outside decoded table"));
        assert!(!report.is_clean(), "a skipped report is not a clean pass");
        assert!(report.findings.is_empty());
        let json = report_json("t", &report);
        assert!(
            json.contains("\"skipped\":\"entry outside decoded table\""),
            "{json}"
        );
    }

    #[test]
    fn mem_map_covers_image_stack_and_devices() {
        let elf = cabt_workloads::gcd(4, 1).elf().unwrap();
        let map = guest_mem_map(&elf);
        // Image text at its load address.
        let text = elf
            .sections
            .iter()
            .find(|s| s.kind == SectionKind::Text)
            .unwrap();
        assert!(map.covers(text.addr, 4).is_some());
        // Stack seed and UART data register.
        assert!(map.covers(0xd002_fff0, 4).is_some());
        assert!(map.covers(0xf000_0100, 4).is_some());
        // Open bus inside the IO window but between devices.
        assert!(map.covers(0xf000_8000, 4).is_none());
    }
}
