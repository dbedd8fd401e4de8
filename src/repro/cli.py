"""Command-line interface for the reliability toolkit.

Installed as the ``repro-storage`` console script.  Every sub-command is
a thin adapter over the unified study facade: it parses its arguments
into a declarative :class:`repro.study.Scenario`, answers it with
:func:`repro.study.run`, and prints the resulting
:class:`repro.study.StudyResult` through the one shared renderer
(:mod:`repro.study.render`) — tables and ASCII charts by default, a
schema-versioned ``{"command", "schema", "scenario", "result"}``
envelope with ``--json``.  Because the scenario is embedded in every
JSON payload, any emitted answer can be re-run verbatim.

Sub-commands:

``scenarios``
    Print the paper's Section 5.4 worked examples next to the values the
    paper reports.
``mttdl``
    Closed-form mirrored MTTDL (and mission loss probability) for a
    parameter set given on the command line (``engine="analytic"``).
``sweep-audit``
    MTTDL as a function of the audit rate; analytic by default, with a
    simulated series when ``--trials`` is given.
``replication``
    Eq. 12 MTTDL for a range of replication degrees and correlation
    factors.
``validate``
    Compare the closed forms against the exact Markov chain
    (``engine="markov"``, which carries the full E11 table).
``simulate``
    Monte-Carlo estimate of the MTTDL or mission loss probability.
    ``--method``/``--backend`` map onto a study engine: ``auto`` (the
    default) pilots on the vectorized batch backend and escalates to
    rare-event importance sampling or multilevel splitting when almost
    every trial censors; ``standard`` forces the plain estimator on the
    chosen backend; ``is``/``splitting`` force a rare-event method.
    ``--variance-reduction cv`` swaps in the control-variate batch
    estimator.
``optimize``
    Budget-constrained planner: search a design space for the
    cost–reliability Pareto frontier and recommend a configuration for
    ``--budget`` and/or ``--target-loss``.
``fleet``
    Decades-scale fleet simulation over a non-stationary
    :class:`~repro.fleet.FleetTimeline` (``--timeline`` JSON file, or a
    generation-refresh demo timeline built from the flags).
``trace``
    Summarise a JSONL flight-recorder trace written by
    ``--telemetry PATH``: per-phase latency table, cache hit rate, and
    an ASCII convergence sparkline (see :mod:`repro.obs`).

Every stochastic sub-command (``simulate``, ``optimize``, ``fleet``,
``sweep-audit``) accepts ``--seed``, ``--jobs``, and
``--telemetry PATH`` (record the run into a JSONL trace) through one
shared parent parser, so the flags and their error messages are
uniform.  All times are entered in hours, consistent with the library.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from typing import Optional, Sequence

from repro import obs, study
from repro.analysis.tables import format_scenario_table
from repro.core.parameters import FaultModel
from repro.core.redundancy import parse_scheme
from repro.core.scenarios import paper_scenarios
from repro.fleet import FleetTimeline, generation_refresh_timeline
from repro.optimize import DesignSpace
from repro.optimize.space import PLACEMENTS
from repro.simulation.monte_carlo import HighCensoringWarning

# Re-exported for backward compatibility: the one JSON emission path now
# lives in the shared renderer.
_emit_json = study.emit_json


# ---------------------------------------------------------------------------
# Shared parent parsers
# ---------------------------------------------------------------------------


def _model_parent() -> argparse.ArgumentParser:
    """The FaultModel parameters (defaults: scrubbed Cheetah pair)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--mv", type=float, default=1.4e6,
                        help="mean time to a visible fault, hours (default: 1.4e6)")
    parent.add_argument("--ml", type=float, default=2.8e5,
                        help="mean time to a latent fault, hours (default: 2.8e5)")
    parent.add_argument("--mrv", type=float, default=1.0 / 3.0,
                        help="mean repair time for visible faults, hours (default: 20 min)")
    parent.add_argument("--mrl", type=float, default=1.0 / 3.0,
                        help="mean repair time for latent faults, hours (default: 20 min)")
    parent.add_argument("--mdl", type=float, default=1460.0,
                        help="mean latent detection delay, hours (default: 1460)")
    parent.add_argument("--alpha", type=float, default=1.0,
                        help="correlation factor in (0, 1] (default: 1.0)")
    return parent


def _stochastic_parent() -> argparse.ArgumentParser:
    """The knobs every stochastic sub-command shares."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0,
                        help="root random seed (default: 0)")
    parent.add_argument("--jobs", type=int, default=1,
                        help="worker processes where the engine parallelises "
                        "(optimize refinement, fleet chunks; default: 1, serial)")
    parent.add_argument("--telemetry", default=None, metavar="PATH",
                        help="record the run into a JSONL flight-recorder "
                        "trace at PATH (appends; inspect with the trace "
                        "sub-command; default: no telemetry)")
    return parent


def _json_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of tables")
    return parent


def _model_from_args(args: argparse.Namespace) -> FaultModel:
    return FaultModel(
        mean_time_to_visible=args.mv,
        mean_time_to_latent=args.ml,
        mean_repair_visible=args.mrv,
        mean_repair_latent=args.mrl,
        mean_detect_latent=args.mdl,
        correlation_factor=args.alpha,
    )


def _answer(args: argparse.Namespace, scenario: study.Scenario) -> str:
    """Run a scenario and render it the way the invocation asked for.

    Estimator warnings are already captured into the result (and
    rendered next to the numbers they qualify), so their default
    stderr emission is suppressed here.
    """
    telemetry = None
    writer = None
    trace_path = getattr(args, "telemetry", None)
    if trace_path is not None:
        writer = obs.TraceWriter(trace_path)
        telemetry = obs.Telemetry(trace=writer)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HighCensoringWarning)
            result = study.run(
                scenario,
                jobs=getattr(args, "jobs", 1),
                cache_dir=getattr(args, "cache_dir", None),
                telemetry=telemetry,
            )
    finally:
        if writer is not None:
            writer.close()
    if getattr(args, "json", False):
        return study.render_json(args.command, scenario, result)
    return study.render_text(scenario, result)


# ---------------------------------------------------------------------------
# Sub-command adapters: arguments -> Scenario
# ---------------------------------------------------------------------------


def _cmd_scenarios(_args: argparse.Namespace) -> str:
    return format_scenario_table(paper_scenarios())


def _cmd_mttdl(args: argparse.Namespace) -> str:
    scenario = study.Scenario(
        question="mttdl",
        system=study.SystemSpec(model=_model_from_args(args)),
        mission_years=args.mission_years,
        policy=study.EstimatorPolicy(engine="analytic"),
    )
    return _answer(args, scenario)


def _cmd_sweep_audit(args: argparse.Namespace) -> str:
    engine = "analytic" if args.trials == 0 else "batch"
    scenario = study.Scenario(
        question="sweep",
        system=study.SystemSpec(model=_model_from_args(args)),
        sweep=study.SweepSpec(
            parameter="audits_per_year",
            values=tuple(float(rate) for rate in args.rates),
        ),
        policy=study.EstimatorPolicy(
            engine=engine,
            trials=args.trials if args.trials else 1000,
            seed=args.seed,
        ),
    )
    return _answer(args, scenario)


def _cmd_replication(args: argparse.Namespace) -> str:
    # The replicas sweep only reads the visible-fault mean time and
    # repair time; the remaining FaultModel fields are inert stand-ins.
    model = FaultModel(
        mean_time_to_visible=args.mv,
        mean_time_to_latent=args.mv,
        mean_repair_visible=args.mrv,
        mean_repair_latent=args.mrv,
        mean_detect_latent=0.0,
    )
    scenario = study.Scenario(
        question="sweep",
        system=study.SystemSpec(model=model),
        sweep=study.SweepSpec(
            parameter="replicas",
            values=tuple(float(r) for r in range(1, args.max_replicas + 1)),
            correlation_factors=tuple(float(a) for a in args.alphas),
        ),
        policy=study.EstimatorPolicy(engine="analytic"),
    )
    return _answer(args, scenario)


def _cmd_validate(args: argparse.Namespace) -> str:
    scenario = study.Scenario(
        question="mttdl",
        system=study.SystemSpec(model=_model_from_args(args)),
        policy=study.EstimatorPolicy(engine="markov"),
    )
    return _answer(args, scenario)


def _cmd_simulate(args: argparse.Namespace) -> str:
    engine = study.engine_for(args.backend, args.method)
    if engine is None:
        # The one legacy combination without an engine equivalent
        # (event-backend auto piloting) escalates through the default
        # auto engine instead.
        engine = "auto"
    if args.variance_reduction != "none" and args.method == "auto":
        # A variance-reduced estimator replaces the sampling scheme, so
        # it runs on the plain batch engine; an explicit conflicting
        # --method still surfaces the policy's error.
        engine = "batch"
    scheme = parse_scheme(args.scheme) if args.scheme is not None else None
    scenario = study.Scenario(
        question="mttdl" if args.metric == "mttdl" else "loss_probability",
        system=study.SystemSpec(
            model=_model_from_args(args),
            replicas=args.replicas,
            audits_per_year=args.audits_per_year,
            scheme=scheme,
        ),
        mission_years=args.mission_years,
        max_time_hours=args.max_time,
        policy=study.EstimatorPolicy(
            engine=engine,
            trials=args.trials,
            seed=args.seed,
            target_relative_error=args.target_relative_error,
            bias=args.bias,
            variance_reduction=args.variance_reduction,
        ),
    )
    return _answer(args, scenario)


_OPTIMIZE_ENGINES = {"auto": "auto", "standard": "batch", "is": "is"}


def _cmd_optimize(args: argparse.Namespace) -> str:
    if args.budget is None and args.target_loss is None:
        raise ValueError("provide --budget and/or --target-loss")
    try:
        space = DesignSpace(
            dataset_tb=args.dataset_tb,
            media=tuple(args.media),
            replica_counts=tuple(args.replicas),
            audit_rates=tuple(float(rate) for rate in args.audit_rates),
            placements=tuple(args.placements),
            site_cost_per_year=args.site_cost,
            erasure_schemes=tuple(args.scheme or ()),
        )
    except KeyError as error:
        # Catalog lookups raise KeyError with a message listing the
        # known identifiers; surface it as a user-input error.
        raise ValueError(error.args[0]) from error
    scenario = study.Scenario(
        question="frontier",
        space=space,
        mission_years=args.mission_years,
        budget=args.budget,
        target_loss=args.target_loss,
        slack=args.slack,
        policy=study.EstimatorPolicy(
            engine=_OPTIMIZE_ENGINES[args.method],
            trials=args.trials,
            seed=args.seed,
        ),
    )
    return _answer(args, scenario)


def _fleet_timeline_from_args(args: argparse.Namespace) -> FleetTimeline:
    scheme = parse_scheme(args.scheme) if args.scheme is not None else None
    if args.timeline is not None:
        try:
            timeline = FleetTimeline.from_json(args.timeline)
        except FileNotFoundError as error:
            raise ValueError(
                f"timeline file not found: {args.timeline}"
            ) from error
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            raise ValueError(
                f"malformed timeline file {args.timeline}: {error}"
            ) from error
        if scheme is not None:
            timeline = dataclasses.replace(timeline, scheme=scheme)
        return timeline
    try:
        return generation_refresh_timeline(
            medium=args.medium,
            years=args.years,
            refresh_every_years=args.refresh_years,
            replicas=args.replicas,
            audits_per_year=args.audits_per_year,
            scheme=scheme,
        )
    except KeyError as error:
        raise ValueError(error.args[0]) from error


def _cmd_trace(args: argparse.Namespace) -> str:
    try:
        obs.validate_trace(args.path)
        summary = obs.summarize_trace(args.path)
    except FileNotFoundError as error:
        raise ValueError(f"trace file not found: {args.path}") from error
    except obs.TraceSchemaError as error:
        raise ValueError(str(error)) from error
    if args.json:
        return json.dumps(
            {"command": "trace", "schema": 1, "summary": summary},
            indent=2,
            sort_keys=True,
        )
    return obs.render(summary)


def _cmd_serve(args: argparse.Namespace) -> str:
    import asyncio

    from repro.serve import ResultStore, StudyService, serve_lines, start_server

    if args.batch_window < 0:
        raise ValueError("--batch-window must be non-negative")
    store = ResultStore(args.cache_dir) if args.cache_dir else None

    async def _run_service() -> int:
        service = StudyService(
            store=store,
            jobs=args.jobs,
            batch_window=args.batch_window / 1000.0,
            max_batch=args.max_batch,
        )
        try:
            if args.stdio:
                loop = asyncio.get_running_loop()
                reader = asyncio.StreamReader()
                await loop.connect_read_pipe(
                    lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
                )

                def write(line: str) -> None:
                    sys.stdout.write(line)
                    sys.stdout.flush()

                print("serving on stdio", file=sys.stderr, flush=True)
                return await serve_lines(service, reader, write)
            server = await start_server(service, args.host, args.port)
            address = server.sockets[0].getsockname()
            # The readiness line goes to stderr so stdout stays clean
            # for machine consumers; smoke harnesses wait for it.
            print(
                f"serving on http://{address[0]}:{address[1]}",
                file=sys.stderr,
                flush=True,
            )
            async with server:
                await server.serve_forever()
            return 0
        finally:
            await service.close()

    try:
        requests = asyncio.run(_run_service())
    except KeyboardInterrupt:
        return "server stopped"
    if args.stdio:
        # Stdout is the JSON-lines response stream; the summary must
        # not pollute it.
        print(f"served {requests} requests", file=sys.stderr, flush=True)
        return ""
    return f"served {requests} requests"


def _cmd_fleet(args: argparse.Namespace) -> str:
    scenario = study.Scenario(
        question="fleet_survival",
        timeline=_fleet_timeline_from_args(args),
        members=args.members,
        chunk_size=args.chunk_size,
        policy=study.EstimatorPolicy(engine="fleet", seed=args.seed),
    )
    return _answer(args, scenario)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-storage",
        description="Reliability modelling toolkit for long-term digital storage "
        "(Baker et al., EuroSys 2006 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    model_parent = _model_parent()
    stochastic_parent = _stochastic_parent()
    json_parent = _json_parent()

    scenarios = subparsers.add_parser(
        "scenarios", help="print the paper's Section 5.4 worked examples"
    )
    scenarios.set_defaults(handler=_cmd_scenarios)

    mttdl = subparsers.add_parser(
        "mttdl",
        parents=[model_parent, json_parent],
        help="evaluate the mirrored MTTDL for a parameter set",
    )
    mttdl.add_argument("--mission-years", type=float, default=50.0,
                       help="mission length for the loss probability (default: 50)")
    mttdl.set_defaults(handler=_cmd_mttdl)

    sweep = subparsers.add_parser(
        "sweep-audit",
        parents=[model_parent, stochastic_parent, json_parent],
        help="MTTDL as a function of the audit rate",
    )
    sweep.add_argument("--rates", nargs="+", default=["0", "1", "3", "12", "52"],
                       help="audit rates (per year) to evaluate")
    sweep.add_argument("--trials", type=int, default=0,
                       help="attach a simulated MTTDL series with this many "
                       "Monte-Carlo trials per rate (default: 0, analytic only)")
    sweep.set_defaults(handler=_cmd_sweep_audit)

    replication = subparsers.add_parser(
        "replication",
        parents=[json_parent],
        help="Eq. 12 MTTDL vs replication degree",
    )
    replication.add_argument("--mv", type=float, default=1.4e6,
                             help="per-replica mean time to fault, hours")
    replication.add_argument("--mrv", type=float, default=1.0 / 3.0,
                             help="repair time, hours")
    replication.add_argument("--max-replicas", type=int, default=5,
                             help="largest replication degree to evaluate")
    replication.add_argument("--alphas", nargs="+", default=["1.0", "0.1", "0.01"],
                             help="correlation factors to evaluate")
    replication.set_defaults(handler=_cmd_replication)

    validate = subparsers.add_parser(
        "validate",
        parents=[model_parent, json_parent],
        help="compare the closed forms against the Markov chain",
    )
    validate.set_defaults(handler=_cmd_validate)

    simulate = subparsers.add_parser(
        "simulate",
        parents=[model_parent, stochastic_parent, json_parent],
        help="Monte-Carlo estimate of the MTTDL or mission loss probability",
    )
    simulate.add_argument("--backend", choices=["event", "batch"], default="batch",
                          help="simulation backend for --method standard "
                          "(default: batch, vectorized)")
    simulate.add_argument("--metric", choices=["mttdl", "loss"], default="mttdl",
                          help="quantity to estimate (default: mttdl)")
    simulate.add_argument("--method",
                          choices=["standard", "is", "splitting", "auto"],
                          default="auto",
                          help="estimator: auto (default) switches to "
                          "rare-event acceleration when nearly every trial "
                          "censors; is = failure-biased importance sampling; "
                          "splitting = multilevel splitting (loss metric)")
    simulate.add_argument("--bias", type=float, default=None,
                          help="failure-biasing factor for importance "
                          "sampling (default: chosen automatically)")
    simulate.add_argument("--trials", type=int, default=1000,
                          help="Monte-Carlo trials, per chunk when adaptive (default: 1000)")
    simulate.add_argument("--replicas", type=int, default=2,
                          help="replication degree (default: 2)")
    simulate.add_argument("--scheme", default=None,
                          help="erasure-coding scheme as N,K (e.g. 6,4): "
                          "N fragments, any K recover the data; overrides "
                          "--replicas (default: plain replication)")
    simulate.add_argument("--mission-years", type=float, default=50.0,
                          help="mission length for the loss metric (default: 50)")
    simulate.add_argument("--max-time", type=float, default=None,
                          help="censoring horizon in hours for the MTTDL metric")
    simulate.add_argument("--audits-per-year", type=float, default=None,
                          help="override the model-derived audit rate")
    simulate.add_argument("--target-relative-error", type=float, default=None,
                          help="adaptive sampling: extend until std error / mean "
                          "falls below this fraction")
    simulate.add_argument("--variance-reduction",
                          choices=["none", "cv"], default="none",
                          help="variance-reduced estimator on the plain batch "
                          "engine: cv = conditional-Monte-Carlo control "
                          "variate (threshold-2 schemes; default: none)")
    simulate.set_defaults(handler=_cmd_simulate)

    optimize_parser = subparsers.add_parser(
        "optimize",
        parents=[stochastic_parent, json_parent],
        help="search a design space for the cost-reliability Pareto frontier",
    )
    optimize_parser.add_argument("--budget", type=float, default=None,
                                 help="annual budget in dollars; recommends the most "
                                 "reliable frontier design that fits")
    optimize_parser.add_argument("--target-loss", type=float, default=None,
                                 help="mission loss-probability target; recommends "
                                 "the cheapest frontier design whose loss CI upper "
                                 "bound meets it")
    optimize_parser.add_argument("--dataset-tb", type=float, default=10.0,
                                 help="collection size in terabytes (default: 10)")
    optimize_parser.add_argument("--mission-years", type=float, default=50.0,
                                 help="mission length in years (default: 50)")
    optimize_parser.add_argument("--media", nargs="+",
                                 default=["drive:barracuda", "drive:cheetah", "media:tape"],
                                 help="medium identifiers (drive:<id> or media:<id>)")
    optimize_parser.add_argument("--replicas", nargs="+", type=int, default=[2, 3, 4],
                                 help="replication degrees to consider (default: 2 3 4)")
    optimize_parser.add_argument("--scheme", nargs="+", default=None,
                                 help="erasure-coding schemes to consider, each "
                                 "as N,K (e.g. 6,4 9,6); added to the design "
                                 "space next to the replication degrees")
    optimize_parser.add_argument("--audit-rates", nargs="+",
                                 default=["0", "1", "12", "52"],
                                 help="audit rates (per replica per year) to consider")
    optimize_parser.add_argument("--placements", nargs="+", default=list(PLACEMENTS),
                                 choices=list(PLACEMENTS),
                                 help="placement styles to consider (default: both)")
    optimize_parser.add_argument("--site-cost", type=float, default=0.0,
                                 help="annual cost per additional independent site "
                                 "(default: 0)")
    optimize_parser.add_argument("--trials", type=int, default=1000,
                                 help="Monte-Carlo trials per refined candidate "
                                 "(default: 1000)")
    optimize_parser.add_argument("--method",
                                 choices=["standard", "is", "auto"],
                                 default="auto",
                                 help="refinement estimator: auto (default) "
                                 "switches high-reliability candidates to "
                                 "importance sampling instead of returning "
                                 "zero-loss rule-of-three bounds")
    optimize_parser.add_argument("--slack", type=float, default=4.0,
                                 help="screening slack: prune a candidate when a "
                                 "no-more-expensive one screens this many times "
                                 "better (default: 4)")
    optimize_parser.add_argument("--cache-dir", default=None,
                                 help="directory for the content-hash result cache "
                                 "(default: no cache)")
    optimize_parser.set_defaults(handler=_cmd_optimize)

    fleet = subparsers.add_parser(
        "fleet",
        parents=[stochastic_parent, json_parent],
        help="simulate an archive fleet over a decades-scale timeline "
        "(generation refreshes, migrations, aging, correlated shocks)",
    )
    fleet.add_argument("--timeline", default=None,
                       help="path to a FleetTimeline JSON file (default: a "
                       "generation-refresh timeline built from the flags "
                       "below)")
    fleet.add_argument("--years", type=float, default=50.0,
                       help="horizon of the default timeline in years "
                       "(default: 50)")
    fleet.add_argument("--members", type=int, default=2000,
                       help="fleet size (default: 2000)")
    fleet.add_argument("--medium", default="drive:cheetah",
                       help="medium of the default timeline "
                       "(drive:<id> or media:<id>)")
    fleet.add_argument("--refresh-years", type=float, default=15.0,
                       help="media generation refresh interval of the "
                       "default timeline (default: 15)")
    fleet.add_argument("--replicas", type=int, default=2,
                       help="replication degree of the default timeline "
                       "(default: 2)")
    fleet.add_argument("--scheme", default=None,
                       help="erasure-coding scheme as N,K for every member "
                       "(overrides --replicas and any timeline file's "
                       "scheme; default: plain replication)")
    fleet.add_argument("--audits-per-year", type=float, default=12.0,
                       help="audit rate of the default timeline "
                       "(default: 12)")
    fleet.add_argument("--chunk-size", type=int, default=1000,
                       help="members per chunk (default: 1000)")
    fleet.add_argument("--cache-dir", default=None,
                       help="directory for the chunk tally cache "
                       "(default: no cache)")
    fleet.set_defaults(handler=_cmd_fleet)

    serve = subparsers.add_parser(
        "serve",
        help="run the Scenario→StudyResult query service (HTTP + "
        "persistent result store; POST Scenario JSON to /query, scrape "
        "/metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8750,
                       help="TCP port (default: 8750; 0 picks a free one)")
    serve.add_argument("--cache-dir", default=None,
                       help="directory for the persistent result store "
                       "(default: no store — single-flight and batching "
                       "only)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes for engines that parallelise "
                       "internally (default: 1)")
    serve.add_argument("--stdio", action="store_true",
                       help="serve JSON-lines requests on stdin/stdout "
                       "instead of HTTP (one request object per line)")
    serve.add_argument("--batch-window", type=float, default=2.0,
                       help="milliseconds to hold a compatible batch group "
                       "open for companions before flushing to one kernel "
                       "invocation (default: 2)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="flush a batch group immediately at this many "
                       "members (default: 64)")
    serve.set_defaults(handler=_cmd_serve)

    trace = subparsers.add_parser(
        "trace",
        parents=[json_parent],
        help="summarise a JSONL flight-recorder trace written by "
        "--telemetry (phase latencies, cache hit rate, convergence "
        "sparkline)",
    )
    trace.add_argument("path", help="path to the JSONL trace file")
    trace.set_defaults(handler=_cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        output = args.handler(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if output:
        print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
