"""Command-line interface.

Subcommands cover the library surface: ``generate`` writes random graphs,
``stats`` reports community/boundary statistics, ``reduce`` writes a reduced
instance, ``solve`` minimizes exactly or through a MaxSAT solver, ``qaoa``
runs the simulator, ``pipeline`` times the full reduction on one graph, and
``bench`` sweeps ensembles into CSV.  Every subcommand takes ``--seed``;
each registers only the other shared flags (format, jobs, solver command,
caps) that it reads, so a flag it would ignore is refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .community import detect_multilevel, refine_boundary, score_g, read_membership
from .errors import ParameterError
from .graphs import (
    Graph,
    maxcut_to_qubo,
    random_erdos_renyi,
    random_regular,
    read_graph,
    write_graph,
)
from .polynomial import DEFAULT_BRUTE_CAP, PuboPolynomial, _index, _minimum
from .qaoa import (
    DEFAULT_QAOA_BUDGET,
    DEFAULT_QAOA_CAP,
    DEFAULT_QAOA_DEPTH,
    DEFAULT_QAOA_STARTS,
    optimize,
)
from .reducer import (
    DEFAULT_BOUNDARY_CAP,
    MODES,
    assemble_reduced,
    quench_communities,
)
from .solvers import (
    BACKENDS,
    CSV_HEADER,
    PipelineConfig,
    classical_pipeline,
    solve,
)

STATS_HEADER = (
    "graph,n,m,num_communities,mean_community_size,"
    "b_baseline,b_refined,reduction_baseline,reduction_refined"
)


_SHARED_FLAGS = {
    "format": dict(choices=("json", "csv"), default="json", help="output format"),
    "jobs": dict(type=int, default=1, help="parallel workers"),
    "solver-cmd": dict(default=None, help="external MaxSAT command"),
    "boundary-cap": dict(
        type=int, default=DEFAULT_BOUNDARY_CAP,
        help="max community boundary size for quenching",
    ),
    "brute-cap": dict(
        type=int, default=DEFAULT_BRUTE_CAP, help="max variables for exact enumeration"
    ),
    "qaoa-cap": dict(
        type=int, default=DEFAULT_QAOA_CAP, help="max qubits for statevectors"
    ),
}


def _shared_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Register ``--seed`` and the named entries of ``_SHARED_FLAGS``."""
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    for name in names:
        parser.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _pipeline_flags(parser: argparse.ArgumentParser, backends, *names: str) -> None:
    """Register what :func:`_pipeline_config` reads (``--backend`` with the
    given choices) and the named shared flags."""
    _shared_flags(parser, *names, "solver-cmd", "boundary-cap", "brute-cap")
    parser.add_argument("--backend", choices=backends, default="oracle")
    parser.add_argument("--no-refine", action="store_true")


def _make_graph(args, seed: int | None = None) -> Graph:
    """The graph named by ``--graph``, which takes no generator flag, or a
    random one of ``--n`` vertices drawn with ``seed`` (default ``--seed``)."""
    if args.graph is not None:
        extra = _given(args, "n", "kind", "k", "p")
        if extra:
            raise ParameterError(f"--graph takes no generator flags; drop {' '.join(extra)}")
        return read_graph(args.graph)
    if args.kind is None:
        raise ParameterError("give --graph FILE or --kind with --n")
    if args.n is None:
        raise ParameterError(f"--kind {args.kind} needs --n")
    return _random_graph(args, args.n, args.seed if seed is None else seed)


def _random_graph(args, n: int, seed: int) -> Graph:
    """A random ``--kind`` graph on ``n`` vertices, drawn with ``seed``; the
    generator flag the kind does not read is refused, not ignored."""
    read, unread = ("k", "p") if args.kind == "regular" else ("p", "k")
    if getattr(args, unread) is not None:
        raise ParameterError(f"--kind {args.kind} takes no --{unread}; drop it")
    if getattr(args, read) is None:
        raise ParameterError(f"--kind {args.kind} needs --{read}")
    if args.kind == "regular":
        return random_regular(n, args.k, seed)
    return random_erdos_renyi(n, args.p, seed)


def _add_generator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=("regular", "er", "erdos"), default=None)
    parser.add_argument("--k", type=int, default=None, help="regular degree")
    parser.add_argument("--p", type=float, default=None, help="edge probability")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", default=None, help="path to a graph file")
    parser.add_argument("--n", type=int, default=None, help="vertex count")
    _add_generator_flags(parser)


def _given(args, *flags: str) -> list[str]:
    """The named flags that were given, as ``--flag``; a flag the subcommand
    does not register counts as not given."""
    return [f"--{f}" for f in flags if getattr(args, f, None) is not None]


def _load_poly(args) -> PuboPolynomial:
    """The polynomial in ``--poly``, which takes no graph flag, or the MaxCut
    QUBO of the graph that :func:`_make_graph` reads or draws."""
    if args.poly is not None:
        extra = _given(args, "graph", "n", "kind", "k", "p")
        if extra:
            raise ParameterError(f"--poly takes no graph flags; drop {' '.join(extra)}")
        return PuboPolynomial.load(args.poly)
    return maxcut_to_qubo(_make_graph(args))


def _emit(args, payload: dict, csv_line: str | None = None, header: str | None = None):
    """Print ``payload`` as JSON, or ``csv_line`` under ``--format csv``; only
    commands that pass a CSV line register ``--format``."""
    if csv_line is not None and args.format == "csv":
        if header:
            print(header)
        print(csv_line)
    else:
        print(json.dumps(payload, indent=2))


def cmd_generate(args) -> int:
    _index(args.count, "--count", 1)
    out = Path(args.out)
    if args.count == 1:
        write_graph(_make_graph(args), out)
        print(f"wrote {out}")
        return 0
    if args.graph is not None:
        raise ParameterError("--count > 1 draws random graphs; drop --graph")
    seeds = range(args.seed, args.seed + args.count)
    graphs = [_make_graph(args, seed) for seed in seeds]
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{args.kind}_n{args.n}" + (
        f"_k{args.k}" if args.kind == "regular" else f"_p{args.p}"
    )
    for seed, g in zip(seeds, graphs):
        write_graph(g, out / f"{tag}_s{seed}.txt")
    print(f"wrote {args.count} graphs under {out}")
    return 0


def _stats_row(path: str, seed: int, refine: bool) -> tuple[dict, str]:
    """One graph's statistics; community count and mean size of the final partition."""
    g = read_graph(path)
    n = g.num_vertices
    base = detect_multilevel(g, seed=seed)
    refined = refine_boundary(g, base, seed=seed) if refine else None
    final = base if refined is None else refined
    b_base = int(base.boundary.sum())
    b_ref = None if refined is None else int(refined.boundary.sum())
    row = {  # max(., 1) gives 0.0 on an empty graph
        "graph": path,
        "n": n,
        "m": g.num_edges,
        "num_communities": final.num_communities,
        "mean_community_size": n / max(final.num_communities, 1),
        "b_baseline": b_base,
        "b_refined": b_ref,
        "reduction_baseline": (n - b_base) / max(n, 1),
        "reduction_refined": None if b_ref is None else (n - b_ref) / max(n, 1),
    }
    csv_line = ",".join(
        "" if row[key] is None else str(row[key]) for key in STATS_HEADER.split(",")
    )
    return row, csv_line


def cmd_stats(args) -> int:
    rows, lines = zip(
        *(_stats_row(path, args.seed, not args.no_refine) for path in args.graphs)
    )
    _emit(args, list(rows), csv_line="\n".join(lines), header=STATS_HEADER)
    return 0


def cmd_reduce(args) -> int:
    if args.membership is not None and args.no_refine:
        raise ParameterError("--membership uses the file's partition as it is; drop --no-refine")
    g = _make_graph(args)
    poly = maxcut_to_qubo(g)
    if args.membership is not None:
        assignment = read_membership(g, args.membership)
    else:
        assignment = detect_multilevel(g, seed=args.seed)
        if not args.no_refine:
            assignment = refine_boundary(g, assignment, seed=args.seed)
    stage2 = quench_communities(poly, assignment, args.mode, args.boundary_cap)
    instance = assemble_reduced(assignment, args.mode, *stage2)
    if args.out:
        instance.save(args.out)
    payload = {
        "n_original": poly.num_vars,
        "n_reduced": len(instance.var_map),
        "mode": instance.mode,
        "num_communities": assignment.num_communities,
        "score_g": score_g(assignment),
        "degree_histogram": instance.degree_histogram(),
        "var_map": list(instance.var_map),
        "out": args.out,
    }
    _emit(args, payload)
    return 0


def cmd_solve(args) -> int:
    poly = _load_poly(args)
    energy, spins = solve(poly, args.solver_cmd, args.brute_cap)
    method = "oracle" if args.solver_cmd is None else "wcnf"
    payload = {"energy": energy, "spins": spins.tolist(), "method": method}
    _emit(args, payload, csv_line=f"{energy},{''.join('+' if s > 0 else '-' for s in spins)}")
    return 0


def cmd_qaoa(args) -> int:
    poly = _load_poly(args)
    e_min = None
    if poly.num_vars <= min(args.brute_cap, args.qaoa_cap):
        e_min = _minimum(poly, args.brute_cap, witness=False)[0]
    result = optimize(
        poly,
        p=args.depth,
        budget=args.budget,
        starts=args.starts,
        seed=args.seed,
        e_min=e_min,
        cap=args.qaoa_cap,
    )
    if args.trace_out:
        lines = ["eval,expectation"]
        lines += [f"{i},{value!r}" for i, value in enumerate(result.trace)]
        Path(args.trace_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    payload = {
        "p": args.depth,
        "best_expectation": result.expectation,
        "e_min": e_min,
        "best_ratio": result.ratio,
        "best_params": {
            "gammas": result.params.gammas.tolist(),
            "betas": result.params.betas.tolist(),
        },
        "evals_used": result.evals_used,
    }
    _emit(args, payload)
    return 0


def _pipeline_config(args, seed: int, mode: str, **qaoa) -> PipelineConfig:
    """The run ``args`` describe; only ``pipeline`` has ``qaoa`` settings to pass."""
    return PipelineConfig(
        mode=mode,
        backend=args.backend,
        seed=seed,
        refine=not args.no_refine,
        boundary_cap=args.boundary_cap,
        brute_cap=args.brute_cap,
        solver_cmd=args.solver_cmd,
        **qaoa,
    )


def cmd_pipeline(args) -> int:
    g = _make_graph(args)
    cfg = _pipeline_config(
        args, args.seed, args.mode,
        qaoa_depth=args.depth, qaoa_budget=args.budget,
        qaoa_starts=args.starts, qaoa_cap=args.qaoa_cap,
    )
    report = classical_pipeline(g, cfg)
    report.graph_kind, report.graph_k = args.kind or "", args.k
    _emit(args, report.to_json_dict(), csv_line=report.to_csv_row(), header=CSV_HEADER)
    return 0


def cmd_bench(args) -> int:
    _index(args.jobs, "--jobs", 1)
    _index(args.count, "--count", 1)
    runs = [
        (n, mode, args.seed + i)
        for n in (int(tok) for tok in args.n_list.split(",") if tok)
        for mode in args.modes.split(",")
        for i in range(args.count)
    ]
    configs = [_pipeline_config(args, seed, mode) for _, mode, seed in runs]
    graphs = [_random_graph(args, n, seed) for n, _, seed in runs]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(classical_pipeline, graphs, configs))
    else:
        reports = list(map(classical_pipeline, graphs, configs))
    for report in reports:
        report.graph_kind, report.graph_k = args.kind, args.k
    text = "\n".join([CSV_HEADER] + [report.to_csv_row() for report in reports])
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {len(reports)} rows to {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubocut",
        description="divide-and-conquer QUBO reduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"qubocut {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write random graph files")
    _add_graph_source(p_gen)
    _shared_flags(p_gen)
    p_gen.add_argument("--count", type=int, default=1, help="graphs to write")
    p_gen.add_argument("--out", required=True, help="file (count=1) or directory")
    p_gen.set_defaults(func=cmd_generate)

    p_stats = sub.add_parser("stats", help="community and boundary statistics")
    p_stats.add_argument("graphs", nargs="+", help="graph files")
    p_stats.add_argument("--no-refine", action="store_true")
    _shared_flags(p_stats, "format")
    p_stats.set_defaults(func=cmd_stats)

    p_red = sub.add_parser("reduce", help="reduce a graph's QUBO to a boundary PUBO")
    _add_graph_source(p_red)
    _shared_flags(p_red, "boundary-cap")
    p_red.add_argument("--mode", choices=MODES, default="exact")
    p_red.add_argument("--membership", default=None, help="reuse a partition file")
    p_red.add_argument("--no-refine", action="store_true")
    p_red.add_argument("--out", default=None, help="write reduced instance JSON")
    p_red.set_defaults(func=cmd_reduce)

    p_solve = sub.add_parser("solve", help="minimize a polynomial or graph exactly")
    _add_graph_source(p_solve)
    _shared_flags(p_solve, "format", "solver-cmd", "brute-cap")
    p_solve.add_argument("--poly", default=None, help="polynomial JSON path")
    p_solve.set_defaults(func=cmd_solve)

    p_qaoa = sub.add_parser("qaoa", help="simulate QAOA on a polynomial or graph")
    _add_graph_source(p_qaoa)
    _shared_flags(p_qaoa, "brute-cap", "qaoa-cap")
    p_qaoa.add_argument("--poly", default=None, help="polynomial JSON path")
    p_qaoa.add_argument("--depth", type=int, default=DEFAULT_QAOA_DEPTH, help="circuit depth")
    p_qaoa.add_argument("--budget", type=int, default=DEFAULT_QAOA_BUDGET)
    p_qaoa.add_argument("--starts", type=int, default=DEFAULT_QAOA_STARTS)
    p_qaoa.add_argument("--trace-out", default=None, help="per-eval CSV path")
    p_qaoa.set_defaults(func=cmd_qaoa)

    p_pipe = sub.add_parser("pipeline", help="run the full reduction pipeline")
    _add_graph_source(p_pipe)
    _pipeline_flags(p_pipe, BACKENDS, "format", "qaoa-cap")
    p_pipe.add_argument("--mode", choices=MODES, default="exact")
    p_pipe.add_argument("--depth", type=int, default=DEFAULT_QAOA_DEPTH)
    p_pipe.add_argument("--budget", type=int, default=DEFAULT_QAOA_BUDGET)
    p_pipe.add_argument("--starts", type=int, default=DEFAULT_QAOA_STARTS)
    p_pipe.set_defaults(func=cmd_pipeline)

    # no QAOA backend or flags: the bench CSV has no column for a QAOA result
    p_bench = sub.add_parser("bench", help="sweep pipeline runs into CSV")
    _add_generator_flags(p_bench)
    _pipeline_flags(p_bench, ("oracle", "wcnf"), "jobs")
    p_bench.add_argument("--n-list", default="12,16,20", help="comma-separated sizes")
    p_bench.add_argument("--count", type=int, default=5, help="seeds per size")
    p_bench.add_argument("--modes", default="exact", help="comma-separated modes")
    p_bench.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_bench.set_defaults(func=cmd_bench, kind="regular")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
