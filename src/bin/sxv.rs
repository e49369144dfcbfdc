//! `sxv` — command-line front end for secure-xml-views.
//!
//! ```text
//! sxv derive      --dtd hospital.dtd --root hospital --spec nurse.spec [--bind wardNo=6] [--show-sigma]
//! sxv materialize --dtd … --root … --spec … --doc data.xml
//! sxv rewrite     --dtd … --root … --spec … --query '//patient//bill' [--no-optimize]
//! sxv query       --dtd … --root … --spec … --doc data.xml --query '…' [--approach naive|rewrite|optimize|annotate]
//!                 [--bind k=v]… [--stats] [--repeat N] [--threads N] [--verify]
//! sxv query       --package pkg.sxvpkg --query '…' [--role NAME] [--approach …]
//!                 [--stats] [--repeat N] [--threads N] [--verify]
//! sxv pack        --dtd … --root … --doc data.xml --out pkg.sxvpkg (--spec FILE | --role NAME=SPECFILE …)
//!                 [--bind k=v]…
//! sxv explain     --dtd … --root … --spec … --query '…' [--approach …] [--bind k=v]…
//!                 [--format text|json] [--verify]
//! sxv generate    --dtd … --root … [--branch 4] [--seed 1] [--depth 30]
//! sxv validate    --dtd … --root … --doc data.xml
//! sxv lint        --dtd … --root … [--spec …] [--bind k=v] [--view view.txt] [--query '…'] [--plans]
//!                 [--format text|json] [--deny-warnings] [--allow C] [--warn C] [--deny C]
//! sxv serve       --dtd … --root … --role NAME=SPECFILE … --doc NAME=XMLFILE … [--bind k=v]
//!                 [--package NAME=PKGFILE …] [--port N] [--workers N] [--queue N] [--timeout-ms N]
//!                 [--stats-interval N] [--warm queries.txt] [--verify]
//! ```
//!
//! All subcommands read the document DTD (with `--root` naming the root
//! element type) and, where applicable, a specification file in the
//! paper's `ann(parent, child) = Y|N|[q]` syntax with `--bind` supplying
//! `$parameter` values. A flag the subcommand's usage line does not list
//! is refused.
//!
//! `sxv query`, `sxv serve` and `sxv explain` share one plan per query:
//! the engine's cached `auto` plan, run over the document's structural
//! index (a package's, or one built at load).
//!
//! `sxv lint` is the static analyzer: it audits the specification, the
//! (derived or `--view`-supplied) view definition and any `--query`
//! without loading a document, and exits 0 when clean, 1 when warnings
//! remain under `--deny-warnings`, and 2 on errors. With `--plans` it
//! also compiles every `--query` under every approach × plan policy and
//! runs the static plan certifier over each compiled plan (`SXV3xx`).
//!
//! `--verify` (on `query`, `explain`, `serve`) is strict certification:
//! plans whose certificate has error findings are refused instead of
//! executed (`explain --verify` prints the certificate trace and exits
//! 1 when uncertified).
//!
//! `sxv pack` serializes everything derived from one DTD + document +
//! role specs — the parsed arena document, its structural index, and
//! one accessibility artifact per role — into a single `.sxvpkg` file;
//! `sxv query --package` and `sxv serve --package NAME=PKG` then skip
//! XML parsing, indexing and σ expansion at startup entirely, loading
//! the artifacts with bulk word decoding instead. Answers from a
//! package are byte-identical to the in-memory build.

use secure_xml_views::core::{
    answer_line, build_access_view, certify_traced, derive_view, materialize, optimize,
    parse_view_text, rewrite, rewrite_with_height, AccessSpec, Approach, PlanPolicy, Planned,
    SecureEngine,
};
use secure_xml_views::dtd::{parse_dtd, validate, validate_attributes, Dtd};
use secure_xml_views::gen::{GenConfig, Generator};
use secure_xml_views::lint::{
    lint_plan, lint_query, lint_spec, lint_view, Level, LintConfig, Report,
};
use secure_xml_views::pack::{load_package_file, write_package_file, Package, RoleArtifacts};
use secure_xml_views::serve::{run as serve_run, ServeConfig};
use secure_xml_views::xml::{parse as parse_xml, to_string_pretty, DocIndex, Document};
use secure_xml_views::xpath::{parse as parse_xpath, AccessView};
use std::path::Path as FsPath;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sxv: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed command-line options (flag → values, in order).
struct Options {
    command: String,
    /// The subcommand's usage line: the flags it accepts.
    usage: &'static str,
    flags: Vec<(String, String)>,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut args = std::env::args().skip(1);
        let command = args.next().ok_or_else(usage)?;
        let usage = subcommand_usage(&command)
            .ok_or_else(|| format!("unknown subcommand {command:?}\n{}", usage()))?;
        let mut flags = Vec::new();
        while let Some(flag) = args.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, found {flag:?}"))?
                .to_string();
            let Some((_, takes_value)) = usage_flags(usage).find(|&(f, _)| f == name) else {
                return Err(format!("`sxv {command}` does not take --{name}\nusage: {usage}"));
            };
            let value = if takes_value {
                args.next().ok_or_else(|| format!("--{name} needs a value"))?
            } else {
                String::new()
            };
            flags.push((name, value));
        }
        Ok(Options { command, usage, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Every value of a repeatable flag, in order.
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.flags.iter().filter(|(n, _)| n == name).map(|(_, v)| v.as_str()).collect()
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| {
            format!(
                "`sxv {cmd}` is missing required --{name}\nusage: {usage}",
                cmd = self.command,
                usage = self.usage
            )
        })
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn binds(&self) -> Vec<(String, String)> {
        self.flags
            .iter()
            .filter(|(n, _)| n == "bind")
            .filter_map(|(_, v)| v.split_once('=').map(|(k, w)| (k.to_string(), w.to_string())))
            .collect()
    }
}

fn usage() -> String {
    "usage: sxv <derive|materialize|rewrite|query|explain|generate|validate|lint|serve|pack> \
     --dtd FILE --root NAME …\n\
     run with a subcommand; see the crate docs for flags"
        .to_string()
}

/// The one-line usage of a subcommand, `None` for an unknown one. It is
/// the one list of the flags the subcommand takes (see [`usage_flags`]).
fn subcommand_usage(command: &str) -> Option<&'static str> {
    Some(match command {
        "derive" => "sxv derive --dtd FILE --root NAME --spec FILE [--bind k=v]… [--show-sigma]",
        "materialize" => {
            "sxv materialize --dtd FILE --root NAME --spec FILE --doc FILE [--bind k=v]…"
        }
        "rewrite" => {
            "sxv rewrite --dtd FILE --root NAME --spec FILE --query PATH [--bind k=v]… \
             [--height N] [--no-optimize]"
        }
        "query" => {
            "sxv query (--dtd FILE --root NAME --spec FILE --doc FILE | --package PKGFILE \
             [--role NAME]) --query PATH \
             [--approach naive|rewrite|optimize|annotate] [--bind k=v]… \
             [--stats] [--repeat N] [--threads N] [--verify]"
        }
        "pack" => {
            "sxv pack --dtd FILE --root NAME --doc FILE --out PKGFILE \
             (--spec FILE | --role NAME=SPECFILE…) [--bind k=v]…"
        }
        "explain" => {
            "sxv explain --dtd FILE --root NAME --spec FILE --query PATH \
             [--approach naive|rewrite|optimize|annotate] [--bind k=v]… \
             [--format text|json] [--verify]"
        }
        "generate" => "sxv generate --dtd FILE --root NAME [--branch N] [--seed N] [--depth N]",
        "validate" => "sxv validate --dtd FILE --root NAME --doc FILE",
        "lint" => {
            "sxv lint --dtd FILE --root NAME [--spec FILE] [--bind k=v]… [--view FILE] \
             [--query PATH]… [--plans] [--format text|json] [--deny-warnings] [--allow CODE]… \
             [--warn CODE]… [--deny CODE]…"
        }
        "serve" => {
            "sxv serve (--dtd FILE --root NAME --role NAME=SPECFILE… --doc NAME=XMLFILE… | \
             --package NAME=PKGFILE…) [--bind k=v]… [--port N] [--workers N] [--queue N] \
             [--timeout-ms N] [--stats-interval N] [--warm FILE] [--verify]"
        }
        _ => return None,
    })
}

/// Each `--flag` of a usage line, and whether it takes a value: a
/// boolean flag is written `[--flag]`, a valued one `--flag VALUE`.
fn usage_flags(usage: &str) -> impl Iterator<Item = (&str, bool)> {
    usage.split("--").skip(1).map(|rest| {
        let end = rest.find(|c: char| !c.is_ascii_alphanumeric() && c != '-').unwrap_or(rest.len());
        (&rest[..end], rest[end..].starts_with(' '))
    })
}

fn run() -> Result<ExitCode, String> {
    let opts = Options::parse()?;
    match opts.command.as_str() {
        "derive" => cmd_derive(&opts).map(|()| ExitCode::SUCCESS),
        "materialize" => cmd_materialize(&opts).map(|()| ExitCode::SUCCESS),
        "rewrite" => cmd_rewrite(&opts).map(|()| ExitCode::SUCCESS),
        "query" => cmd_query(&opts).map(|()| ExitCode::SUCCESS),
        "explain" => cmd_explain(&opts),
        "generate" => cmd_generate(&opts).map(|()| ExitCode::SUCCESS),
        "validate" => cmd_validate(&opts).map(|()| ExitCode::SUCCESS),
        "lint" => cmd_lint(&opts),
        "serve" => cmd_serve(&opts).map(|()| ExitCode::SUCCESS),
        "pack" => cmd_pack(&opts).map(|()| ExitCode::SUCCESS),
        other => unreachable!("Options::parse refuses unknown subcommand {other:?}"),
    }
}

fn load_dtd(opts: &Options) -> Result<Dtd, String> {
    let path = opts.require("dtd")?;
    let root = opts.require("root")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_dtd(&text, root).map_err(|e| e.to_string())
}

fn load_spec(opts: &Options, dtd: &Dtd) -> Result<AccessSpec, String> {
    let path = opts.require("spec")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let binds = opts.binds();
    let params: Vec<(&str, &str)> = binds.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    AccessSpec::parse(dtd, &text, &params).map_err(|e| e.to_string())
}

fn load_doc(opts: &Options) -> Result<Document, String> {
    let path = opts.require("doc")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_xml(&text).map_err(|e| e.to_string())
}

fn cmd_derive(opts: &Options) -> Result<(), String> {
    let dtd = load_dtd(opts)?;
    let spec = load_spec(opts, &dtd)?;
    let view = derive_view(&spec).map_err(|e| e.to_string())?;
    print!("{}", view.view_dtd_to_string());
    if opts.has("show-sigma") {
        println!("/* hidden σ annotations: */");
        for (parent, child, q) in view.sigma_entries() {
            println!("σ({parent}, {child}) = {q}");
        }
    }
    Ok(())
}

fn cmd_materialize(opts: &Options) -> Result<(), String> {
    let dtd = load_dtd(opts)?;
    let spec = load_spec(opts, &dtd)?;
    let doc = load_doc(opts)?;
    let view = derive_view(&spec).map_err(|e| e.to_string())?;
    let m = materialize(&spec, &view, &doc).map_err(|e| e.to_string())?;
    println!("{}", to_string_pretty(&m.doc));
    Ok(())
}

fn cmd_rewrite(opts: &Options) -> Result<(), String> {
    let dtd = load_dtd(opts)?;
    let spec = load_spec(opts, &dtd)?;
    let query = parse_xpath(opts.require("query")?).map_err(|e| e.to_string())?;
    let view = derive_view(&spec).map_err(|e| e.to_string())?;
    // Recursive views rewrite directly to Kleene-closure expressions;
    // `--height` opts into the §4.2 unfolding oracle instead (kept for
    // differential testing against the closure translation).
    let translated = match opts.get("height") {
        Some(v) => {
            let height: usize = v.parse().map_err(|e| format!("--height: {e}"))?;
            rewrite_with_height(&view, &query, height).map_err(|e| e.to_string())?
        }
        None => rewrite(&view, &query).map_err(|e| e.to_string())?,
    };
    if opts.has("no-optimize") {
        println!("{translated}");
    } else {
        let optimized = optimize(spec.dtd(), &translated).map_err(|e| e.to_string())?;
        println!("{optimized}");
    }
    Ok(())
}

/// Everything `sxv query` needs before the first evaluation, with how
/// long the one-time setup took (reported separately from query time by
/// `--stats` so `--repeat` timings isolate per-query cost).
struct QuerySetup {
    dtd: Dtd,
    spec_text: String,
    doc: Document,
    /// Index shipped in the package (`None` on the parse path, which
    /// builds one).
    prebuilt_index: Option<DocIndex>,
    /// Accessibility artifact shipped in the package, preloaded into
    /// the engine's cache.
    prebuilt_access: Option<Arc<AccessView>>,
    binds: Vec<(String, String)>,
    /// One-line provenance for the `--stats` setup report.
    source: String,
}

/// Load setup state from `--package` (bulk decode, no XML parse) or
/// from `--dtd`/`--spec`/`--doc` source files.
fn load_query_setup(opts: &Options) -> Result<QuerySetup, String> {
    if let Some(path) = opts.get("package") {
        if opts.has("bind") {
            return Err("--bind cannot be combined with --package: parameter bindings \
                        are baked in at `sxv pack` time"
                .into());
        }
        for flag in ["dtd", "root", "spec", "doc"] {
            if opts.has(flag) {
                return Err(format!(
                    "--{flag} cannot be combined with --package (the package \
                                    carries the DTD, spec and document)"
                ));
            }
        }
        let pkg = load_package_file(FsPath::new(path)).map_err(|e| format!("{path}: {e}"))?;
        let dtd = parse_dtd(&pkg.dtd_text, &pkg.root_name).map_err(|e| format!("{path}: {e}"))?;
        let Package { doc, index, mut roles, .. } = pkg;
        let role = match opts.get("role") {
            Some(name) => {
                let i = roles
                    .iter()
                    .position(|r| r.name == name)
                    .ok_or_else(|| format!("{path}: no role {name:?} in package"))?;
                roles.swap_remove(i)
            }
            None if roles.len() == 1 => roles.pop().expect("len checked"),
            None => {
                let names: Vec<&str> = roles.iter().map(|r| r.name.as_str()).collect();
                return Err(format!(
                    "{path} has {} roles ({}); pick one with --role NAME",
                    roles.len(),
                    names.join(", ")
                ));
            }
        };
        Ok(QuerySetup {
            dtd,
            spec_text: role.spec_text,
            doc,
            prebuilt_index: Some(index),
            prebuilt_access: Some(role.access),
            binds: role.binds,
            source: format!("package {path} (role {:?})", role.name),
        })
    } else {
        let dtd = load_dtd(opts)?;
        let spec_path = opts.require("spec")?;
        let spec_text =
            std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
        let doc = load_doc(opts)?;
        Ok(QuerySetup {
            dtd,
            spec_text,
            doc,
            prebuilt_index: None,
            prebuilt_access: None,
            binds: opts.binds(),
            source: format!("parsed {}", opts.require("doc")?),
        })
    }
}

fn cmd_query(opts: &Options) -> Result<(), String> {
    let setup_started = Instant::now();
    let setup = load_query_setup(opts)?;
    let params: Vec<(&str, &str)> =
        setup.binds.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    let spec =
        AccessSpec::parse(&setup.dtd, &setup.spec_text, &params).map_err(|e| e.to_string())?;
    let doc = setup.doc;
    let query = parse_xpath(opts.require("query")?).map_err(|e| e.to_string())?;
    let approach: Approach = opts.get("approach").unwrap_or("optimize").parse()?;
    let repeat: usize = match opts.get("repeat") {
        None => 1,
        Some(v) => v.parse().map_err(|e| format!("--repeat: {e}"))?,
    };
    if repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    let threads: usize = match opts.get("threads") {
        None => 1,
        Some(v) => v.parse().map_err(|e| format!("--threads: {e}"))?,
    };
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    // Queries run the engine's `Auto` plan over an index, as the daemon
    // does. A package ships its index pre-built.
    let index = setup
        .prebuilt_index
        .or_else(|| DocIndex::new(&doc))
        .ok_or("document ids are not in document order; cannot index")?;
    let view = derive_view(&spec).map_err(|e| e.to_string())?;
    let mut engine = SecureEngine::new(&spec, &view);
    if opts.has("verify") {
        engine.set_verify(true);
    }
    if let Some(access) = setup.prebuilt_access {
        engine.preload_access_view(doc.doc_id(), access);
    }
    let setup_us = setup_started.elapsed().as_micros();
    let query_started = Instant::now();
    let (answer, last_report) = if threads > 1 {
        // Fan the repeat copies across worker threads sharing the one
        // immutable document + index.
        let queries: Vec<_> = (0..repeat).map(|_| query.clone()).collect();
        let mut results =
            engine.answer_batch(&doc, Some(&index), &queries, approach, PlanPolicy::Auto, threads);
        let (ans, report) = results.pop().expect("repeat >= 1").map_err(|e| e.to_string())?;
        for r in results {
            let (other, _) = r.map_err(|e| e.to_string())?;
            if other != ans {
                return Err("batch workers disagree on the answer".into());
            }
        }
        (ans, report)
    } else {
        let mut answer = Vec::new();
        let mut last_report = None;
        for _ in 0..repeat {
            let (ans, report) = engine
                .answer_report_policy(&doc, Some(&index), &query, approach, PlanPolicy::Auto)
                .map_err(|e| e.to_string())?;
            answer = ans;
            last_report = Some(report);
        }
        (answer, last_report.expect("repeat >= 1"))
    };
    let query_us = query_started.elapsed().as_micros();
    if opts.has("stats") {
        let report = last_report;
        let cache = engine.cache_stats();
        // Phase timings: setup is everything done once per invocation
        // (load/parse/index/derive); the query phase covers all --repeat
        // runs, whose per-run average isolates steady-state query cost
        // (run 1 still pays plan compilation and, for naive/annotate,
        // the per-document artifact — later runs hit the caches).
        eprintln!("setup: {} in {}us ({} nodes)", setup.source, setup_us, doc.len(),);
        eprintln!(
            "query: {} run(s) in {}us (avg {}us/run)",
            repeat,
            query_us,
            query_us / repeat as u128,
        );
        eprintln!("translated query: {}", report.translated());
        eprintln!(
            "plan ({} policy): ops={} mix={} est_rows≈{}",
            report.policy,
            report.plan.total_ops(),
            report.plan.mix(),
            report.plan.est_rows,
        );
        eprintln!(
            "evaluation: nodes_touched={} qualifier_checks={} index_lookups={} merge_steps={} \
             interval_probes={}",
            report.eval.nodes_touched,
            report.eval.qualifier_checks,
            report.eval.index_lookups,
            report.eval.merge_steps,
            report.eval.interval_probes,
        );
        eprintln!(
            "translation cache: hits={} misses={} entries={} hit_rate={:.1}% \
             plans_compiled={} (last query: {})",
            cache.hits,
            cache.misses,
            cache.entries,
            100.0 * cache.hit_rate(),
            cache.plans_compiled,
            if report.cache_hit { "hit" } else { "miss" },
        );
        eprintln!(
            "certifier: plans_certified={} failures={} time={}us (last plan: {}{})",
            cache.plans_certified,
            cache.certify_failures,
            cache.certify_micros,
            if report.certified { "certified" } else { "NOT certified" },
            if engine.verify_enabled() { ", verify on" } else { "" },
        );
        if approach == Approach::Annotate {
            let access = engine.access_stats();
            eprintln!(
                "accessibility bitmaps: builds={} hits={} entries={} build_time={}us \
                 footprint={} bytes",
                access.builds, access.hits, access.entries, access.build_micros, access.bytes,
            );
        }
    }
    eprintln!("{} result(s)", answer.len());
    for node in answer {
        println!("{}", answer_line(&doc, node));
    }
    Ok(())
}

fn cmd_explain(opts: &Options) -> Result<ExitCode, String> {
    let dtd = load_dtd(opts)?;
    let spec = load_spec(opts, &dtd)?;
    let query = parse_xpath(opts.require("query")?).map_err(|e| e.to_string())?;
    let approach: Approach = opts.get("approach").unwrap_or("optimize").parse()?;
    let json = match opts.get("format").unwrap_or("text") {
        "text" => false,
        "json" => true,
        other => return Err(format!("unknown format {other:?} (valid values: text, json)")),
    };
    let view = derive_view(&spec).map_err(|e| e.to_string())?;
    let engine = SecureEngine::new(&spec, &view);
    // The plan every serving surface runs for this query.
    let (planned, _) = engine.plan_certified(&query, approach, PlanPolicy::Auto);
    let Planned { plan, .. } = planned.map_err(|e| e.to_string())?;
    // --verify appends the certificate with its trace (the engine caches
    // none; certification is pure, so the verdict is the cached one). An
    // uncertified plan turns the exit code nonzero.
    let cert = opts.has("verify").then(|| certify_traced(&plan, engine.certify_context()));
    if json {
        match &cert {
            Some(c) => {
                println!("{{\"plan\": {}, \"certificate\": {}}}", plan.explain_json(), c.to_json())
            }
            None => println!("{}", plan.explain_json()),
        }
    } else {
        println!("translated query: {}", plan.translated);
        print!("{}", plan.explain_text());
        if let Some(c) = &cert {
            print!("{}", c.to_text());
        }
    }
    Ok(match cert {
        Some(c) if !c.cert.certified() => ExitCode::from(1),
        _ => ExitCode::SUCCESS,
    })
}

fn cmd_generate(opts: &Options) -> Result<(), String> {
    let dtd = load_dtd(opts)?;
    let parse_flag = |name: &str, default: usize| -> Result<usize, String> {
        match opts.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
        }
    };
    let config = GenConfig::seeded(parse_flag("seed", 1)? as u64)
        .with_max_branch(parse_flag("branch", 4)?)
        .with_max_depth(parse_flag("depth", 30)?);
    let doc = Generator::for_dtd(&dtd, config)
        .generate()
        .ok_or("the DTD has no instance within the depth budget")?;
    println!("{}", to_string_pretty(&doc));
    Ok(())
}

fn cmd_lint(opts: &Options) -> Result<ExitCode, String> {
    let dtd = load_dtd(opts)?;
    let mut config = LintConfig::new();
    for (flag, level) in [("allow", Level::Allow), ("warn", Level::Warn), ("deny", Level::Deny)] {
        for code in opts.get_all(flag) {
            config.set_level(code, level)?;
        }
    }

    let binds = opts.binds();
    let params: Vec<(&str, &str)> = binds.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    let mut diags = Vec::new();

    // Specification lints. `lint_spec` is lenient: it reports parse and
    // unknown-edge problems as diagnostics and builds the specification
    // from the surviving rules, binding unset `$parameters` to opaque
    // literals so no user session is needed.
    let spec = match opts.get("spec") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let outcome = lint_spec(&dtd, &text, &params);
            diags.extend(outcome.diagnostics);
            outcome.spec
        }
        None => None,
    };

    // View audit + query lints, both relative to the specification.
    match &spec {
        Some(spec) => {
            let view = match opts.get("view") {
                Some(path) => {
                    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                    parse_view_text(&text).map_err(|e| e.to_string())?
                }
                None => derive_view(spec).map_err(|e| e.to_string())?,
            };
            diags.extend(lint_view(spec, &view));
            for text in opts.get_all("query") {
                let query = parse_xpath(text).map_err(|e| format!("--query {text:?}: {e}"))?;
                diags.extend(lint_query(&dtd, &view, &query));
            }
            // --plans: compile every --query under every approach ×
            // policy and run the static plan certifier (SXV3xx) over
            // each compiled plan, checking the engine's cached
            // certificate against a fresh one along the way.
            if opts.has("plans") {
                let engine = SecureEngine::new(spec, &view);
                let approaches = [
                    (Approach::Rewrite, "rewrite"),
                    (Approach::Optimize, "optimize"),
                    (Approach::Annotate, "annotate"),
                ];
                for text in opts.get_all("query") {
                    let query = parse_xpath(text).map_err(|e| format!("--query {text:?}: {e}"))?;
                    for (approach, approach_name) in approaches {
                        for policy in PlanPolicy::ALL {
                            let (planned, _) = engine.plan_certified(&query, approach, policy);
                            // Translation failures (unknown names) already
                            // surface through the SXV2xx query lints or
                            // `sxv rewrite`.
                            let Ok(planned) = planned else { continue };
                            let label = format!("{text} ({approach_name}, {policy})");
                            diags.extend(lint_plan(
                                &label,
                                &planned.plan,
                                engine.certify_context(),
                                Some(&planned.cert),
                            ));
                        }
                    }
                }
            }
        }
        None if opts.get("view").is_some() || !opts.get_all("query").is_empty() => {
            return Err(
                "--view and --query lints need --spec (the policy to audit against)".to_string()
            );
        }
        None if opts.get("spec").is_none() => {
            return Err(format!(
                "nothing to lint: pass --spec (and optionally --view / --query)\n\
                 usage: {}",
                opts.usage
            ));
        }
        // --spec was given but did not survive parsing: the SXV001
        // diagnostics below carry the details.
        None => {}
    }

    let report = Report::build(diags, &config);
    match opts.get("format").unwrap_or("text") {
        "text" => print!("{}", report.to_text()),
        "json" => println!("{}", report.to_json()),
        other => return Err(format!("unknown --format {other:?} (text|json)")),
    }
    Ok(match report.exit_code(opts.has("deny-warnings")) {
        0 => ExitCode::SUCCESS,
        code => ExitCode::from(code),
    })
}

fn cmd_validate(opts: &Options) -> Result<(), String> {
    let dtd = load_dtd(opts)?;
    let doc = load_doc(opts)?;
    let general = dtd.to_general();
    validate(&general, &doc).map_err(|e| e.to_string())?;
    validate_attributes(&general, &doc).map_err(|e| e.to_string())?;
    println!("valid: {} nodes conform", doc.len());
    Ok(())
}

/// Build an `.sxvpkg` package: parse + index the document, build each
/// role's accessibility artifact, and serialize the lot.
fn cmd_pack(opts: &Options) -> Result<(), String> {
    let dtd_path = opts.require("dtd")?;
    let root = opts.require("root")?;
    let dtd_text = std::fs::read_to_string(dtd_path).map_err(|e| format!("{dtd_path}: {e}"))?;
    let dtd = parse_dtd(&dtd_text, root).map_err(|e| e.to_string())?;
    let out = opts.require("out")?;
    let doc = load_doc(opts)?;
    let index =
        DocIndex::new(&doc).ok_or("document ids are not in document order; cannot index")?;
    let binds = opts.binds();
    let params: Vec<(&str, &str)> = binds.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    // Roles: repeatable --role NAME=SPECFILE, or --spec FILE packed as
    // the single role "default".
    let mut role_sources: Vec<(String, String)> = Vec::new();
    if let Some(path) = opts.get("spec") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        role_sources.push(("default".to_string(), text));
    }
    for entry in opts.get_all("role") {
        let (name, path) = entry
            .split_once('=')
            .ok_or_else(|| format!("--role {entry:?}: expected NAME=SPECFILE"))?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        role_sources.push((name.to_string(), text));
    }
    if role_sources.is_empty() {
        return Err(format!(
            "`sxv pack` needs at least one role: pass --spec FILE or --role NAME=SPECFILE\n\
             usage: {}",
            opts.usage
        ));
    }
    let mut built = Vec::new();
    for (name, text) in &role_sources {
        let spec =
            AccessSpec::parse(&dtd, text, &params).map_err(|e| format!("role {name:?}: {e}"))?;
        let view = derive_view(&spec).map_err(|e| format!("role {name:?}: {e}"))?;
        let access = build_access_view(&spec, &view, &doc, Some(&index));
        built.push((name, text, access));
    }
    let roles: Vec<RoleArtifacts<'_>> = built
        .iter()
        .map(|(name, text, access)| RoleArtifacts { name, spec_text: text, binds: &binds, access })
        .collect();
    write_package_file(FsPath::new(out), &dtd_text, root, &doc, &index, &roles)
        .map_err(|e| format!("{out}: {e}"))?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!("packed {out}: {} nodes, {} role(s), {} bytes", doc.len(), roles.len(), bytes,);
    Ok(())
}

fn cmd_serve(opts: &Options) -> Result<(), String> {
    // Packaged tenants: --package NAME=PKGFILE, repeatable. Each package
    // contributes its document (under NAME), its pre-built index, its
    // roles, and per-role pre-built accessibility artifacts. The DTD
    // comes from the first package when --dtd is absent.
    let mut packages: Vec<(String, Package)> = Vec::new();
    for entry in opts.get_all("package") {
        let (name, path) = entry
            .split_once('=')
            .ok_or_else(|| format!("--package {entry:?}: expected NAME=PKGFILE"))?;
        let pkg = load_package_file(FsPath::new(path)).map_err(|e| format!("{path}: {e}"))?;
        packages.push((name.to_string(), pkg));
    }
    let dtd = if opts.has("dtd") {
        load_dtd(opts)?
    } else if let Some((name, pkg)) = packages.first() {
        parse_dtd(&pkg.dtd_text, &pkg.root_name).map_err(|e| format!("package {name:?}: {e}"))?
    } else {
        load_dtd(opts)? // surfaces the missing --dtd usage error
    };
    let binds = opts.binds();
    let params: Vec<(&str, &str)> = binds.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    // --role nurse=assets/hospital_nurse.spec, repeatable. The same
    // --bind values are shared by every spec (one parameter namespace).
    let mut roles = Vec::new();
    for entry in opts.get_all("role") {
        let (name, path) = entry
            .split_once('=')
            .ok_or_else(|| format!("--role {entry:?}: expected NAME=SPECFILE"))?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let spec = AccessSpec::parse(&dtd, &text, &params)
            .map_err(|e| format!("role {name:?} ({path}): {e}"))?;
        roles.push((name.to_string(), spec));
    }
    // --doc d1=assets/hospital.xml, repeatable. A bare FILE (no '=') is
    // also accepted and served under its path as the name.
    let mut docs = Vec::new();
    for entry in opts.get_all("doc") {
        let (name, path) = entry.split_once('=').unwrap_or((entry, entry));
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = parse_xml(&text).map_err(|e| format!("doc {name:?} ({path}): {e}"))?;
        docs.push((name.to_string(), doc));
    }
    // Fold the packages in: their roles register once (identical spec
    // text + binds required across packages — a silently-diverging spec
    // under one role name would serve one package's artifact under
    // another package's policy), their docs/indexes/artifacts attach
    // under the package name.
    let mut role_sources: std::collections::BTreeMap<String, (String, Vec<(String, String)>)> =
        std::collections::BTreeMap::new();
    let mut indexes = Vec::new();
    let mut preloaded_views = Vec::new();
    for (doc_name, pkg) in packages {
        let Package { doc, index, roles: pkg_roles, .. } = pkg;
        if docs.iter().any(|(n, _)| *n == doc_name) {
            return Err(format!("--package {doc_name:?} collides with a --doc of the same name"));
        }
        docs.push((doc_name.clone(), doc));
        indexes.push((doc_name.clone(), index));
        for role in pkg_roles {
            match role_sources.get(&role.name) {
                None => {
                    let spec_params: Vec<(&str, &str)> =
                        role.binds.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                    let spec = AccessSpec::parse(&dtd, &role.spec_text, &spec_params)
                        .map_err(|e| format!("package role {:?}: {e}", role.name))?;
                    if roles.iter().any(|(n, _)| *n == role.name) {
                        return Err(format!(
                            "package role {:?} collides with a --role of the same name",
                            role.name
                        ));
                    }
                    roles.push((role.name.clone(), spec));
                    role_sources
                        .insert(role.name.clone(), (role.spec_text.clone(), role.binds.clone()));
                }
                Some((text, prev_binds)) => {
                    if *text != role.spec_text || *prev_binds != role.binds {
                        return Err(format!(
                            "role {:?} has a different spec (or binds) across packages; \
                             repack with one policy per role name",
                            role.name
                        ));
                    }
                }
            }
            preloaded_views.push((role.name.clone(), doc_name.clone(), role.access));
        }
    }
    let mut config = ServeConfig::new(roles, docs);
    config.indexes = indexes;
    config.preloaded_views = preloaded_views;
    if let Some(port) = opts.get("port") {
        let port: u16 = port.parse().map_err(|e| format!("--port: {e}"))?;
        config.addr = format!("127.0.0.1:{port}");
    }
    if let Some(workers) = opts.get("workers") {
        config.workers = workers.parse().map_err(|e| format!("--workers: {e}"))?;
        if config.workers == 0 {
            return Err("--workers must be at least 1".into());
        }
    }
    if let Some(queue) = opts.get("queue") {
        config.queue_capacity = queue.parse().map_err(|e| format!("--queue: {e}"))?;
    }
    if let Some(timeout) = opts.get("timeout-ms") {
        config.timeout_ms = timeout.parse().map_err(|e| format!("--timeout-ms: {e}"))?;
    }
    if let Some(interval) = opts.get("stats-interval") {
        config.stats_interval_secs =
            interval.parse().map_err(|e| format!("--stats-interval: {e}"))?;
    }
    if opts.has("verify") {
        config.verify = true;
    }
    // --warm FILE: one query per line, blank lines and #-comments
    // skipped; each is compiled + certified for every role at boot.
    if let Some(path) = opts.get("warm") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("--warm {path}: {e}"))?;
        config.warm_queries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
    }
    // The CLI prints the bound address itself (the daemon also logs it);
    // scripts parse this line to find an ephemeral --port 0 listener.
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let printer = std::thread::spawn(move || {
        if let Ok(addr) = ready_rx.recv() {
            println!("listening on {addr}");
        }
    });
    let result = serve_run(config, ready_tx);
    printer.join().ok();
    result
}
