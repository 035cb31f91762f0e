//! `fleet-server` — batch/server front end over the fleet scheduler.
//!
//! Reads one request per line, emits one JSON result line per request.
//! By default it serves stdin/stdout (batch mode: pipe a request file
//! in, collect JSON out); with `--listen ADDR` it serves the same
//! protocol to TCP clients, one connection at a time.
//!
//! ```text
//! fleet-server [--workers N] [--listen ADDR]
//!
//! run <workload> <backend> cycles|retirements <n>
//!     Run the named workload on the backend descriptor (see
//!     `Backend` `Display`/`FromStr`, e.g. `golden:trace`,
//!     `sharded-4x-pool2:translated:cache`) under the budget.
//!     → {"ok":true,"workload":...,"stats":{...},"uart":"..."}
//! park <workload> <backend> cycles|retirements <n>
//!     Run under the budget, then park: the session is serialized to
//!     the versioned portable format and returned as hex.
//!     → {"ok":true,"parked":"<hex>", ...}
//! resume <hex> cycles|retirements <n>
//!     Rebuild a parked session from hex bytes — from this process or
//!     any other — and continue it under the budget. A registered
//!     workload's image gets `workload` and `checksum_ok` as in `run`.
//! analyze <workload>
//!     Run the static analyzer over a named workload (or a `bad-*`
//!     known-bad corpus entry) without executing it.
//!     → {"ok":true,"report":{"target":...,"clean":...,"findings":[...]}}
//! workloads | backends
//!     List known workload names / backend descriptors.
//! quit
//!     End the conversation.
//! ```
//!
//! A request line longer than 64 MiB, one that is not UTF-8, a budget
//! above `MAX_BUDGET`, or a line with a missing, unknown or trailing
//! word gets an `{"ok":false,...}` row and the conversation goes on.
//! Protocol mistakes read `"error":"protocol: …"`.

use cabt_exec::{Limit, StopCause};
use cabt_fleet::{run_one, FleetPool, FleetRequest, FleetResult};
use cabt_sim::analyze::json_str;
use cabt_sim::{Backend, Session};
use std::error::Error;
use std::io::{BufRead, BufReader, Read, Write};

/// Longest request line the server reads, in bytes. The longest
/// legitimate requests are `resume` lines carrying a park image as hex,
/// and the largest image a bundled workload parks to is a 256-core
/// `producer_consumer` session: about 6.8 MB of hex (1.4 MB at 64
/// cores, under 80 kB at 4 cores or on one core). The cap is ten times
/// that; a longer line gets an error row instead of a buffer.
const MAX_LINE_BYTES: usize = 64 << 20;

/// Largest `cycles` or `retirements` budget `run`, `park` and `resume`
/// accept. Every registry workload halts on every `backends` entry
/// within 468,138 cycles (the largest: `fibonacci` on
/// `translated:cache`), and a 256-core `producer_consumer` within
/// 4,501 frontier cycles. The cap is about 200 times the former, so
/// every halting request fits, while a program that never halts (a
/// guest loop that spins) stops after a bounded run instead of holding
/// a worker forever. A registered workload that cannot halt on its
/// backend, such as a one-core `mailbox`, is refused before it runs.
const MAX_BUDGET: u64 = 100_000_000;

fn main() {
    let mut workers = None;
    let mut listen = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
                workers = Some(n.max(1));
            }
            "--listen" => {
                listen = Some(args.next().unwrap_or_else(|| die("--listen needs ADDR")));
            }
            "--help" | "-h" => {
                eprintln!("usage: fleet-server [--workers N] [--listen ADDR]");
                eprintln!("protocol: run|park <workload> <backend> cycles|retirements <n>");
                eprintln!("          resume <hex> cycles|retirements <n>");
                eprintln!("          workloads | backends | quit");
                return;
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let pool = match workers {
        Some(n) => FleetPool::new(n),
        None => FleetPool::with_host_parallelism(),
    };
    match listen {
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout().lock();
            serve(&pool, &mut stdin.lock(), &mut stdout, MAX_LINE_BYTES);
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .unwrap_or_else(|e| die(&format!("cannot listen on {addr}: {e}")));
            eprintln!("fleet-server listening on {addr}");
            for conn in listener.incoming() {
                let Ok(conn) = conn else { continue };
                let mut writer = match conn.try_clone() {
                    Ok(w) => w,
                    Err(_) => continue,
                };
                serve(
                    &pool,
                    &mut BufReader::new(conn),
                    &mut writer,
                    MAX_LINE_BYTES,
                );
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("fleet-server: {msg}");
    std::process::exit(2);
}

/// One conversation: request lines in, JSON result lines out. A line
/// longer than `max_line` bytes is answered with an error row and
/// skipped without being buffered past the cap.
fn serve(pool: &FleetPool, input: &mut dyn BufRead, output: &mut dyn Write, max_line: usize) {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match Read::take(&mut *input, max_line as u64 + 1).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let reply = if buf.len() > max_line && buf.last() != Some(&b'\n') {
            if input.skip_until(b'\n').is_err() {
                break;
            }
            error_row(&format!("request line longer than {max_line} bytes"))
        } else {
            match std::str::from_utf8(&buf).map(str::trim) {
                Err(_) => error_row("request line is not UTF-8"),
                Ok("quit") => break,
                Ok(line) if line.is_empty() || line.starts_with('#') => continue,
                Ok(line) => dispatch(pool, line).unwrap_or_else(|e| error_row(&e.to_string())),
            }
        };
        if writeln!(output, "{reply}")
            .and_then(|()| output.flush())
            .is_err()
        {
            break;
        }
    }
}

fn dispatch(pool: &FleetPool, line: &str) -> Result<String, Box<dyn Error>> {
    let words: Vec<&str> = line.split_whitespace().collect();
    match words[..] {
        ["workloads"] => Ok(format!(
            "{{\"ok\":true,\"workloads\":[{}]}}",
            cabt_workloads::names()
                .map(json_str)
                .collect::<Vec<_>>()
                .join(",")
        )),
        ["backends"] => Ok(format!(
            "{{\"ok\":true,\"backends\":[{}]}}",
            Backend::all()
                .iter()
                .map(|b| json_str(&b.to_string()))
                .collect::<Vec<_>>()
                .join(",")
        )),
        ["run", workload, backend, kind, n] => {
            let backend: Backend = backend.parse()?;
            let budget = parse_budget(kind, n)?;
            let result = run_one(
                pool,
                FleetRequest::named(workload)
                    .backend(backend)
                    .budget(budget),
            )?;
            Ok(result_json(&result))
        }
        ["park", workload, backend, kind, n] => {
            let backend: Backend = backend.parse()?;
            let budget = parse_budget(kind, n)?;
            // Parking needs the session object itself, so the budgeted
            // prefix runs as a dedicated session rather than a fleet
            // unit; resume continues it anywhere.
            let mut session = cabt_sim::SimBuilder::named(workload)
                .backend(backend)
                .build()?;
            session.run(budget)?;
            let parked = session.park()?;
            Ok(format!(
                "{{\"ok\":true,\"workload\":{},\"backend\":{},\"parked\":{}}}",
                json_str(workload),
                json_str(&backend.to_string()),
                json_str(&hex_encode(&parked)),
            ))
        }
        ["analyze", workload] => {
            // Known-bad corpus entries are addressable too, so a client
            // can exercise the expected-findings path over the wire.
            let report = if workload.starts_with("bad-") {
                cabt_sim::analyze::analyze_known_bad(workload)?
            } else {
                cabt_sim::analyze::analyze_named(workload)?
            };
            Ok(format!(
                "{{\"ok\":true,\"report\":{}}}",
                cabt_sim::analyze::report_json(workload, &report)
            ))
        }
        ["resume", hex, kind, n] => {
            let budget = parse_budget(kind, n)?;
            let bytes = hex_decode(hex).ok_or_else(|| protocol("bad hex in resume"))?;
            let mut session = Session::resume(&bytes)?;
            let stop = session.run(budget)?;
            let d2 = session.read_d(2);
            let (workload, checksum) = match registered_workload(&session) {
                Some((name, want)) => (
                    format!("\"workload\":{},", json_str(name)),
                    format!(
                        "\"checksum_ok\":{},",
                        stop == StopCause::Halted && d2 == want
                    ),
                ),
                None => Default::default(),
            };
            Ok(format!(
                "{{\"ok\":true,{workload}\"backend\":{},\"stop\":{},{checksum}\"d2\":{d2},\"stats\":{}}}",
                json_str(&session.backend().to_string()),
                json_str(stop_name(stop)),
                stats_json(&session.stats()),
            ))
        }
        ["run" | "park", ..] => Err(protocol(
            "usage: run|park <workload> <backend> cycles|retirements <n>",
        )),
        ["resume", ..] => Err(protocol("usage: resume <hex> cycles|retirements <n>")),
        ["analyze", ..] => Err(protocol("usage: analyze <workload>")),
        ["workloads" | "backends", ..] => Err(protocol("usage: workloads | backends")),
        _ => Err(protocol(&format!("unknown verb `{}`", words[0]))),
    }
}

/// The registered workload whose program, built for the session's
/// backend, is the session's image, and its expected `%d2`.
fn registered_workload(session: &Session) -> Option<(&'static str, u32)> {
    cabt_workloads::names().find_map(|name| {
        let w = cabt_sim::named_workload(name, session.backend()).ok()?;
        (w.elf().ok()? == *session.source_elf()).then_some((name, w.expected_d2))
    })
}

fn parse_budget(kind: &str, n: &str) -> Result<Limit, Box<dyn Error>> {
    let n: u64 = n
        .parse()
        .map_err(|_| protocol("budget needs a numeric bound"))?;
    if n > MAX_BUDGET {
        return Err(protocol(&format!(
            "budget {n} is above the cap of {MAX_BUDGET}"
        )));
    }
    match kind {
        "cycles" => Ok(Limit::Cycles(n)),
        "retirements" => Ok(Limit::Retirements(n)),
        other => Err(protocol(&format!("unknown budget kind `{other}`"))),
    }
}

fn error_row(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", json_str(msg))
}

/// A request line the protocol does not accept.
fn protocol(msg: &str) -> Box<dyn Error> {
    format!("protocol: {msg}").into()
}

fn result_json(r: &FleetResult) -> String {
    let uart_text: String = r
        .uart
        .iter()
        .map(|&(_, b)| {
            if b.is_ascii_graphic() || b == b' ' {
                b as char
            } else {
                '.'
            }
        })
        .collect();
    format!(
        "{{\"ok\":true,\"workload\":{},\"backend\":{},\"stop\":{},\"checksum_ok\":{},\"d2\":{},\"epochs\":{},\"digest\":\"{:016x}\",\"epoch_chain\":\"{:016x}\",\"stats\":{},\"uart\":{}}}",
        json_str(&r.workload),
        json_str(&r.backend.to_string()),
        json_str(stop_name(r.stop)),
        r.checksum_ok(),
        r.d2,
        r.epochs,
        r.digest,
        r.epoch_chain,
        stats_json(&r.stats),
        json_str(&uart_text),
    )
}

fn stats_json(s: &cabt_exec::EngineStats) -> String {
    format!(
        "{{\"cycles\":{},\"retired\":{},\"stall_cycles\":{}}}",
        s.cycles, s.retired, s.stall_cycles
    )
}

fn stop_name(stop: StopCause) -> &'static str {
    match stop {
        StopCause::Halted => "halted",
        StopCause::LimitReached => "limit-reached",
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cabt_sim::SimBuilder;

    /// Serves `input` as one conversation on a one-worker pool and
    /// returns the reply rows.
    fn replies(input: &str, max_line: usize) -> Vec<String> {
        let mut output = Vec::new();
        serve(
            &FleetPool::new(1),
            &mut input.as_bytes(),
            &mut output,
            max_line,
        );
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(String::from)
            .collect()
    }

    /// True if `row` is an error row for a protocol mistake.
    fn is_protocol_error(row: &str) -> bool {
        row.starts_with(r#"{"ok":false,"error":"protocol: "#)
    }

    #[test]
    fn over_long_lines_get_an_error_row_and_the_conversation_goes_on() {
        let long = "x".repeat(100);
        let rows = replies(&format!("{long}\nworkloads\n{long}\nquit\nworkloads\n"), 64);
        let refused = r#"{"ok":false,"error":"request line longer than 64 bytes"}"#;
        assert_eq!(rows.len(), 3, "{rows:?}");
        assert_eq!(rows[0], refused);
        assert!(
            rows[1].starts_with(r#"{"ok":true,"workloads":["#),
            "{}",
            rows[1]
        );
        assert_eq!(rows[2], refused);
    }

    #[test]
    fn over_cap_budgets_get_an_error_row_on_every_verb() {
        let input = format!(
            "run gcd golden retirements {over}\n\
             park gcd golden cycles {over}\n\
             resume 00 cycles {over}\n\
             run gcd golden cycles 18446744073709551615\n\
             run gcd golden cycles {max}\n",
            max = MAX_BUDGET,
            over = MAX_BUDGET + 1,
        );
        let rows = replies(&input, MAX_LINE_BYTES);
        assert_eq!(rows.len(), 5, "{rows:?}");
        for row in &rows[..4] {
            assert!(is_protocol_error(row), "{row}");
            assert!(row.contains("above the cap"), "{row}");
        }
        assert!(rows[4].contains(r#""checksum_ok":true"#), "{}", rows[4]);
    }

    #[test]
    fn malformed_lines_get_protocol_error_rows() {
        let input = "run gcd golden\nrun gcd golden cycles many\nrun gcd golden seconds 10\n\
                     resume zz cycles 10\nanalyze\nfrobnicate gcd\n\
                     run gcd no-such-backend cycles 10\n";
        let rows = replies(input, MAX_LINE_BYTES);
        assert_eq!(rows.len(), 7, "{rows:?}");
        for row in &rows[..6] {
            assert!(is_protocol_error(row), "{row}");
        }
        // A descriptor that does not parse is the session's error.
        assert!(
            rows[6].contains("unknown backend descriptor"),
            "{}",
            rows[6]
        );
    }

    #[test]
    fn trailing_words_get_an_error_row() {
        let input = "run gcd golden cycles 100 extra\npark gcd golden cycles 100 extra\n\
                     resume 00 cycles 100 extra\nanalyze gcd extra\nworkloads extra\n";
        let rows = replies(input, MAX_LINE_BYTES);
        assert_eq!(rows.len(), 5, "{rows:?}");
        for row in &rows {
            assert!(row.starts_with(r#"{"ok":false,"#), "{row}");
        }
    }

    #[test]
    fn corrupt_park_images_get_an_error_row_and_serving_goes_on() {
        let mut s = SimBuilder::named("gcd")
            .backend(Backend::translated(cabt_core::DetailLevel::Cache))
            .build()
            .unwrap();
        s.run(Limit::Retirements(500)).unwrap();
        let mut parked = s.park().unwrap();
        // The park ends with the bus image: a device count, then each
        // device image as a u64 length and its bytes — the Timer first,
        // 24 bytes long. Cut the Timer image to 3 bytes.
        let mut bus = Vec::new();
        s.soc_bus_state()
            .expect("translated bus")
            .encode_into(&mut bus);
        let at = parked.len() - bus.len();
        assert_eq!(parked[at + 8..at + 16], 24u64.to_le_bytes());
        parked.splice(
            at + 8..at + 40,
            [&3u64.to_le_bytes()[..], &bus[16..19]].concat(),
        );
        // A golden park whose cached table index points past the
        // program: `cur` is the u32 before the halted flag, the
        // trace-tier flag and the absent-devices flag that close it.
        let mut golden = SimBuilder::named("gcd").build().unwrap();
        golden.run(Limit::Retirements(500)).unwrap();
        assert!(golden.soc_bus_state().is_none(), "no devices to skip");
        let mut past_end = golden.park().unwrap();
        let cur = past_end.len() - 7;
        past_end[cur..cur + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
        let input = format!(
            "resume {} cycles 1000000\nresume {} cycles 1000000\nrun gcd golden cycles {MAX_BUDGET}\n",
            hex_encode(&parked),
            hex_encode(&past_end)
        );
        let rows = replies(&input, MAX_LINE_BYTES);
        assert_eq!(rows.len(), 3, "{rows:?}");
        for row in &rows[..2] {
            assert!(row.starts_with(r#"{"ok":false,"#), "{row}");
        }
        assert!(rows[2].contains(r#""checksum_ok":true"#), "{}", rows[2]);
    }

    #[test]
    fn budgets_spent_on_the_halt_complete_the_run() {
        // Each budget is exactly the halt's cycle or retirement count:
        // the row must read as the unbounded run's, digest included.
        let exact = [
            ("gcd", "golden", "retirements 1325"),
            ("gcd", "golden", "cycles 2027"),
            ("gcd", "translated:cache", "cycles 48866"),
            ("gcd", "translated:cache", "retirements 29438"),
            ("gcd", "rtl", "retirements 1325"),
            ("producer_consumer", "sharded-2x:golden", "cycles 4501"),
            ("producer_consumer", "sharded-2x:golden", "retirements 2642"),
        ];
        let digest = |row: &str| {
            let at = row.find(r#""digest":""#).expect("a result row") + 10;
            row[at..at + 16].to_string()
        };
        for (name, backend, budget) in exact {
            let input = format!(
                "run {name} {backend} {budget}
run {name} {backend} cycles 50000000
"
            );
            let rows = replies(&input, MAX_LINE_BYTES);
            for row in &rows {
                assert!(
                    row.contains(r#""stop":"halted","checksum_ok":true,"#),
                    "{name} on {backend} under {budget}: {row}"
                );
            }
            assert_eq!(
                digest(&rows[0]),
                digest(&rows[1]),
                "{name} on {backend} under {budget}"
            );
        }
    }

    #[test]
    fn resume_rows_name_a_registered_workload() {
        let park = |s: &mut cabt_sim::Session| {
            s.run(Limit::Retirements(300)).unwrap();
            hex_encode(&s.park().unwrap())
        };
        let sharded = Backend::sharded(4, Backend::golden());
        let mailbox = park(
            &mut SimBuilder::named("mailbox")
                .backend(sharded)
                .build()
                .unwrap(),
        );
        let gcd = park(&mut SimBuilder::named("gcd").build().unwrap());
        let other = park(
            &mut SimBuilder::asm(".text\n mov %d2, 7\n debug\n")
                .build()
                .unwrap(),
        );
        let input = format!(
            "resume {mailbox} cycles 1000000\nresume {gcd} cycles 1000000\n\
             resume {gcd} retirements 400\nresume {other} cycles 100\n"
        );
        let rows = replies(&input, MAX_LINE_BYTES);
        assert_eq!(rows.len(), 4, "{rows:?}");
        // `mailbox` on four cores sums to 46, not the registry's 2-core
        // answer.
        assert!(
            rows[0].starts_with(
                r#"{"ok":true,"workload":"mailbox","backend":"sharded-4x:golden","stop":"halted","checksum_ok":true,"d2":46,"#
            ),
            "{}",
            rows[0]
        );
        assert!(rows[1].contains(r#""workload":"gcd","#), "{}", rows[1]);
        assert!(rows[1].contains(r#""checksum_ok":true"#), "{}", rows[1]);
        assert!(
            rows[2].contains(r#""stop":"limit-reached","checksum_ok":false,"#),
            "{}",
            rows[2]
        );
        assert!(
            rows[3].starts_with(r#"{"ok":true,"backend":"golden","stop":"halted","d2":7,"#),
            "an unregistered image keeps the bare row: {}",
            rows[3]
        );
    }

    #[test]
    fn shard_counts_above_the_fabric_ceiling_get_an_error_row() {
        let input = "run gcd sharded-65535x:golden cycles 10\n\
                     park gcd sharded-257x-pool2:golden cycles 10\n\
                     run gcd sharded-256x:golden cycles 10\n";
        let rows = replies(input, MAX_LINE_BYTES);
        assert_eq!(rows.len(), 3, "{rows:?}");
        for row in &rows[..2] {
            assert!(row.starts_with(r#"{"ok":false,"#), "{row}");
        }
        assert!(rows[2].starts_with(r#"{"ok":true,"#), "{}", rows[2]);
    }

    #[test]
    fn retired_vliw_trace_descriptors_get_an_error_row() {
        let rows = replies(
            "run gcd translated:cache:trace cycles 1000\nrun gcd translated:cache cycles 1000\n",
            MAX_LINE_BYTES,
        );
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert!(
            rows[0].starts_with(
                r#"{"ok":false,"error":"unknown backend descriptor `translated:cache:trace`"#
            ),
            "{}",
            rows[0]
        );
        assert!(rows[1].starts_with(r#"{"ok":true,"#), "{}", rows[1]);
    }

    #[test]
    fn every_listed_workload_resolves() {
        let rows = replies("workloads\n", MAX_LINE_BYTES);
        let list = rows[0]
            .strip_prefix(r#"{"ok":true,"workloads":["#)
            .and_then(|r| r.strip_suffix("]}"))
            .unwrap_or_else(|| panic!("{rows:?}"));
        let listed: Vec<&str> = list.split(',').map(|w| w.trim_matches('"')).collect();
        assert!(listed.contains(&"mailbox"), "{listed:?}");
        for name in &listed {
            assert!(cabt_workloads::by_name(name).is_some(), "{name}");
        }
        assert_eq!(listed, cabt_workloads::names().collect::<Vec<_>>());
    }

    #[test]
    fn workloads_that_cannot_halt_on_the_backend_are_refused() {
        let rows = replies(
            "run mailbox golden cycles 1000\nrun mailbox sharded-4x:translated:cache cycles 1000000\n",
            MAX_LINE_BYTES,
        );
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert!(
            rows[0]
                .starts_with(r#"{"ok":false,"error":"workload `mailbox` cannot halt on `golden`"#),
            "{}",
            rows[0]
        );
        assert!(
            rows[1].contains(r#""checksum_ok":true,"d2":46,"#),
            "{}",
            rows[1]
        );
    }

    #[test]
    fn lines_at_the_cap_are_served() {
        let pool = FleetPool::new(1);
        let mut output = Vec::new();
        serve(&pool, &mut "workloads".as_bytes(), &mut output, 9);
        assert!(output.starts_with(br#"{"ok":true,"workloads":["#));
        output.clear();
        serve(&pool, &mut &b"\xff\nquit\n"[..], &mut output, 9);
        assert_eq!(
            output,
            b"{\"ok\":false,\"error\":\"request line is not UTF-8\"}\n"
        );
    }
}
