"""Command-line workbench.

Every subcommand reads JSON inputs, runs one pipeline stage, and writes a
JSON report (plus TSV tables where a table is natural) into the output
directory. Reports embed a hash of the invocation configuration and the
random seed, so identical inputs and seed produce byte-identical files.

Exit codes: 0 all checks passed, 1 a check failed, 2 input error.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys

import click

from . import __version__, fileio
from .builders import build_quoq, build_subq, enumerate_fibrations
from .casestudy import casestudy_s10 as _run_casestudy
from .centermanifold import check_cm_equivariance, cm_taylor
from .errors import ModeUnavailable, ParseError, QuiverdynError
from .lsreduction import (check_reduced_equivariance, find_branches_1param,
                          ls_reduce, synchrony_groups)
from .network import check_admissible, validate_coloured_network
from .normalform import normal_form, verify_normal_form
from .spectral import (check_endomorphism, joint_spectrum, sn_decomposition)
from .tuples import DEGREE_CAP, SAMPLED_DEFAULTS, check_equivariance

SEED = click.IntRange(min=0)
SAMPLES = click.IntRange(min=1)
TOL = click.FloatRange(min=0)


def _num(x):
    """Serialize an exact, float or complex scalar for reports."""
    if isinstance(x, complex):
        return {"re": float(x.real), "im": float(x.imag)}
    return fileio.encode_number(x)


def _config_hash(config):
    blob = fileio.dumps_canonical(config)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _load_network(path):
    return fileio.network_from_json(fileio.load_json(path))


def _load_tuple(path):
    return fileio.tuple_from_json(fileio.load_json(path))


def _load_endomorphism(representation, endomorphism):
    rep = fileio.representation_from_json(fileio.load_json(representation))
    L = fileio.endomorphism_from_json(fileio.load_json(endomorphism), rep)
    return rep, L


def _require_param_dim(F, want):
    if F.param_dim != want:
        raise click.BadParameter(f"the tuple has param_dim {F.param_dim}; "
                                 f"this command needs {want}",
                                 param_hint="'PVF'")


@click.group()
def main():
    """Quiver representations of network dynamical systems."""


def _report(fn):
    """Run fn as a report command with --out and --seed.

    fn receives the command's parameters it names, `seed` after
    QUIVERDYN_SEED, and returns (payload, passed, tables). The report's
    config is the command name and every parameter except --out; the
    command exits 0 when passed, 1 otherwise.
    """
    wanted = inspect.signature(fn).parameters

    @click.option("--seed", default=0, show_default=True, type=SEED,
                  help="random seed (env QUIVERDYN_SEED overrides)")
    @click.option("--out", "-o", default="reports", show_default=True,
                  help="output directory")
    @functools.wraps(fn)
    def command(out, **params):
        env_seed = os.environ.get("QUIVERDYN_SEED")
        if env_seed is not None:
            try:
                params["seed"] = SEED.convert(env_seed, None, None)
            except click.BadParameter as exc:
                raise click.BadParameter(
                    exc.message, param_hint="QUIVERDYN_SEED") from None
        payload, passed, tables = fn(
            **{k: v for k, v in params.items() if k in wanted})
        name = click.get_current_context().command.name
        config = {"command": name, **params}
        os.makedirs(out, exist_ok=True)
        report = {
            "schema_version": fileio.SCHEMA_VERSION,
            "tool_version": __version__,
            "command": name,
            "config": config,
            "config_hash": _config_hash(config),
            "seed": params["seed"],
            "passed": bool(passed),
        }
        report.update(payload)
        path = os.path.join(out, f"{name}.json")
        fileio.dump_json(report, path)
        for table, (header, rows) in tables.items():
            tsv = os.path.join(out, f"{name}.{table}.tsv")
            with open(tsv, "w", encoding="utf-8") as fh:
                fh.write("\t".join(header) + "\n")
                for row in rows:
                    fh.write("\t".join(str(c) for c in row) + "\n")
        click.echo(f"{name}: {'PASS' if passed else 'FAIL'} -> {path}")
        sys.exit(0 if passed else 1)

    return command


def _coefficient_table(blocks):
    """The coefficients table of (vertex, kind, polys) blocks: one row per
    term of each component."""
    rows = [(v, kind, i, list(e), _num(c)) for v, kind, polys in blocks
            for i, p in enumerate(polys) for e, c in p.sorted_terms()]
    return {"coefficients": (("vertex", "kind", "component", "exponents",
                              "coefficient"), rows)}


@main.command()
@click.argument("network", type=click.Path(exists=True))
@_report
def validate(network):
    """Check the colour-consistency conditions of a network file."""
    N = _load_network(network)
    errors = validate_coloured_network(N)
    payload = {"errors": [str(e) for e in errors],
               "nodes": len(N.nodes), "edges": len(N.edges)}
    return payload, not errors, {}


@main.command()
@click.argument("network", type=click.Path(exists=True))
@_report
def subq(network):
    """Build the quiver of subnetworks with projection matrices."""
    N = _load_network(network)
    quiver, rep, vertex_subsets = build_subq(N)
    payload = {
        "representation": fileio.representation_to_json(rep),
        "vertex_subsets": {v: list(s) for v, s in vertex_subsets.items()},
        "n_vertices": len(quiver.vertices),
        "n_arrows": len(quiver.arrows),
    }
    rows = [(a, s, t) for a, s, t in quiver.arrows]
    return payload, True, {"arrows": (("arrow", "source", "target"), rows)}


@main.command()
@click.argument("network", type=click.Path(exists=True))
@_report
def quoq(network):
    """Build the quiver of quotient networks with lifting matrices."""
    N = _load_network(network)
    quiver, rep, catalog, arrow_fibs = build_quoq(N)
    partitions = {}
    for vid, nm in zip(quiver.vertices, catalog.witnesses):
        classes = {}
        for n, c in nm.items():
            classes.setdefault(c, []).append(n)
        partitions[vid] = sorted(sorted(v) for v in classes.values())
    payload = {
        "representation": fileio.representation_to_json(rep),
        "partitions": partitions,
        "n_quotients": len(catalog.quotients),
        "n_arrows": len(quiver.arrows),
    }
    rows = [(a, s, t, dict(arrow_fibs[a].node_map))
            for a, s, t in quiver.arrows]
    return payload, True, {
        "arrows": (("arrow", "source", "target", "node_map"), rows)}


@main.command()
@click.argument("source", type=click.Path(exists=True))
@click.argument("target", type=click.Path(exists=True))
@click.option("--surjective", is_flag=True, help="only surjective fibrations")
@_report
def fibrations(source, target, surjective):
    """Enumerate graph fibrations between two network files."""
    Ns, Nt = _load_network(source), _load_network(target)
    fibs = enumerate_fibrations(Ns, Nt, surjective_only=surjective)
    payload = {"count": len(fibs),
               "fibrations": [{"node_map": dict(f.node_map),
                               "edge_map": dict(f.edge_map)} for f in fibs]}
    rows = [(i, dict(f.node_map)) for i, f in enumerate(fibs)]
    return payload, True, {"maps": (("index", "node_map"), rows)}


@main.command("check-equivariance")
@click.argument("pvf", type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["exact", "sampled"]),
              default="exact", show_default=True)
@click.option("--tol", default=SAMPLED_DEFAULTS["tol"], show_default=True,
              type=TOL)
@click.option("--samples", default=SAMPLED_DEFAULTS["samples"],
              show_default=True, type=SAMPLES)
@_report
def check_equivariance_cmd(pvf, mode, tol, samples, seed):
    """Verify arrow-intertwining of a polynomial tuple file."""
    F = _load_tuple(pvf)
    rpt = check_equivariance(F, mode=mode, tol=tol, samples=samples,
                             seed=seed)
    payload = {"per_arrow": {a: _num(r) for a, r in rpt.per_arrow.items()},
               "max_residual": _num(rpt.max_residual())}
    return payload, rpt.passed, {}


@main.command("check-admissible")
@click.argument("network", type=click.Path(exists=True))
@click.argument("map", type=click.Path(exists=True))
@click.option("--tol", default=1e-9, show_default=True, type=TOL)
@_report
def check_admissible_cmd(network, map, tol):
    """Check dependency and groupoid-symmetry of a total-space map."""
    N = _load_network(network)
    pm, param_dim = fileio.network_map_from_json(fileio.load_json(map))
    rpt = check_admissible(N, pm, param_dim=param_dim, tol=tol)
    payload = {
        "dependency_errors": [str(e) for e in rpt.dependency_errors],
        "groupoid_errors": [str(e) for e in rpt.groupoid_errors],
        "skipped_ambiguous": len(rpt.skipped_ambiguous),
        "max_residual": _num(rpt.max_residual),
    }
    return payload, rpt.ok, {}


@main.command()
@click.argument("representation", type=click.Path(exists=True))
@click.argument("endomorphism", type=click.Path(exists=True))
@_report
def spectrum(representation, endomorphism):
    """Joint eigenvalue clusters of an endomorphism tuple."""
    rep, L = _load_endomorphism(representation, endomorphism)
    endo = check_endomorphism(rep, L)
    clusters = joint_spectrum(L)
    payload = {
        "endomorphism_check": {a: _num(r) for a, r in endo.per_arrow.items()},
        "clusters": [{
            "value": _num(c.value),
            "is_pair": c.is_pair,
            "factor": [_num(x) for x in c.factor] if c.factor else None,
            "multiplicity": dict(sorted(c.multiplicity.items())),
        } for c in clusters],
    }
    rows = [(i, _num(c.value), c.is_pair,
             dict(sorted(c.multiplicity.items())))
            for i, c in enumerate(clusters)]
    return payload, endo.passed, {
        "clusters": (("index", "value", "pair", "multiplicity"), rows)}


@main.command()
@click.argument("representation", type=click.Path(exists=True))
@click.argument("endomorphism", type=click.Path(exists=True))
@_report
def sn(representation, endomorphism):
    """Semisimple/nilpotent decomposition of an endomorphism tuple."""
    rep, L = _load_endomorphism(representation, endomorphism)
    S, N = sn_decomposition(L)
    okS = check_endomorphism(rep, S)
    okN = check_endomorphism(rep, N)
    payload = {
        "semisimple": fileio.endomorphism_to_json(S),
        "nilpotent": fileio.endomorphism_to_json(N),
        "semisimple_endomorphism": okS.passed,
        "nilpotent_endomorphism": okN.passed,
    }
    return payload, okS.passed and okN.passed, {}


@main.command("ls-reduce")
@click.argument("pvf", type=click.Path(exists=True))
@click.option("--samples", default=100, show_default=True, type=SAMPLES)
@click.option("--tol", default=1e-8, show_default=True, type=TOL)
@_report
def ls_reduce_cmd(pvf, samples, tol, seed):
    """Lyapunov-Schmidt reduction and reduced-equivariance check."""
    red = ls_reduce(_load_tuple(pvf))
    rpt = check_reduced_equivariance(red, samples=samples, tol=tol,
                                     seed=seed)
    payload = {
        "kernel_dims": {v: red.kernel_dim(v)
                        for v in red.representation.quiver.vertices},
        "per_arrow_residual": {a: _num(r) for a, r in rpt.per_arrow.items()},
        "neighbourhood_radius": {
            v: red.vertex_data[v].radius
            for v in red.representation.quiver.vertices},
        "radius_is_heuristic": True,
    }
    return payload, rpt.passed, {}


@main.command()
@click.argument("pvf", type=click.Path(exists=True))
@click.option("--vertex", required=True, help="vertex id to trace branches at")
@click.option("--lam-min", default=1e-4, show_default=True,
              type=click.FloatRange(min=0, min_open=True))
@click.option("--lam-max", default=1e-2, show_default=True,
              type=click.FloatRange(min=0, min_open=True))
@click.option("--grid", default=20, show_default=True,
              type=click.IntRange(min=1))
@_report
def branches(pvf, vertex, lam_min, lam_max, grid):
    """Trace and classify bifurcation branches of the reduced equation."""
    F = _load_tuple(pvf)
    _require_param_dim(F, 1)
    if vertex not in F.representation.quiver.vertices:
        raise click.BadParameter(f"{vertex!r} is not a vertex of the "
                                 "tuple's quiver", param_hint="'--vertex'")
    red = ls_reduce(F)
    brs = find_branches_1param(red, vertex, (lam_min, lam_max), grid)
    rows = []
    payload_branches = []
    for i, b in enumerate(brs):
        lam, root = b.points[0]
        sync = [g for g in synchrony_groups(red.lift(vertex, root, [lam]))
                if len(g) > 1]
        rows.append((vertex, i, b.exponents, b.coefficients, sync))
        payload_branches.append({
            "exponents": b.exponents,
            "coefficients": b.coefficients,
            "r_squared": b.r_squared,
            "classified": b.classified,
            "synchrony_groups": sync,
        })
    payload = {"branches": payload_branches, "count": len(brs)}
    return payload, all(b.classified for b in brs), {
        "table": (("vertex", "branch", "exponent", "coefficients",
                   "synchrony"), rows)}


@main.command("cm-reduce")
@click.argument("pvf", type=click.Path(exists=True))
@click.option("--degree", default=4, show_default=True,
              type=click.IntRange(1, DEGREE_CAP))
@_report
def cm_reduce(pvf, degree):
    """Center-manifold Taylor jet and coefficient-level equivariance."""
    F = _load_tuple(pvf)
    _require_param_dim(F, 0)
    exp = cm_taylor(F, degree)
    rpt = check_cm_equivariance(exp)
    payload = {
        "degree": degree,
        "center_dims": {v: vd.center_dim
                        for v, vd in sorted(exp.vertices.items())},
        "per_arrow_residual": {a: _num(r) for a, r in rpt.per_arrow.items()},
    }
    return payload, rpt.passed, _coefficient_table(
        (v, kind, polys) for v, vd in sorted(exp.vertices.items())
        for kind, polys in (("phi", vd.phi), ("reduced", vd.reduced)))


@main.command("normal-form")
@click.argument("pvf", type=click.Path(exists=True))
@click.option("--grade", default=2, show_default=True,
              type=click.IntRange(1, DEGREE_CAP - 1))
@_report
def normal_form_cmd(pvf, grade):
    """Lie-transform normal form with per-grade verification."""
    F = _load_tuple(pvf)
    _require_param_dim(F, 0)
    res = normal_form(F, grade)
    rpt = verify_normal_form(res)
    blocks = [(v, "transformed", pm.outputs)
              for v, pm in sorted(res.transformed.components.items())]
    blocks += [(v, f"generator_{k}", pm.outputs)
               for k, G in sorted(res.generators.items())
               for v, pm in sorted(G.components.items())]
    eq_ok = all(rpt["equivariance"][k]["generator"].passed
                and rpt["equivariance"][k]["transformed_grade"].passed
                for k in range(1, grade + 1)) \
        and rpt["equivariance"]["full"].passed
    comm_ok = all(
        res.transformed.arith.passes(r, 1e-10)
        for r in rpt["commutator"].values())
    payload = {
        "grade": grade,
        "kernel_residuals": {k: _num(r)
                             for k, r in res.kernel_residuals.items()},
        "commutator_residuals": {k: _num(r)
                                 for k, r in rpt["commutator"].items()},
        "equivariance_passed": eq_ok,
    }
    return payload, eq_ok and comm_ok, _coefficient_table(blocks)


@main.command("casestudy-s10")
@click.option("--f", required=True,
              help="e.g. 'f(x,y) = lambda*x - x^2 + y'")
@click.option("--g", required=True,
              help="e.g. 'g(y,x) = -1*y + x'")
@click.option("--case", "case", required=True,
              type=click.Choice(["a=0", "b=0", "ab-cd=0"]))
@_report
def casestudy_cmd(f, g, case):
    """Run the three-vertex steady-state case study end to end."""
    rpt = _run_casestudy(f, g, case)
    rows = []
    for i, (b, s) in enumerate(zip(rpt.branches, rpt.synchrony)):
        rows.append(("N1", i, b.exponents, b.coefficients,
                     s["equal_groups"], s["zero_coordinates"]))
    payload = {
        "case": rpt.case,
        "coefficients": [_num(x) for x in rpt.coefficients],
        "equivariance_passed": rpt.equivariance_passed,
        "kernel_dims": rpt.kernel_dims,
        "restricted_maps": {a: fileio.encode_matrix(m)
                            for a, m in rpt.restricted_maps.items()},
        "decoupled": rpt.decoupled,
        "identity_restriction": rpt.identity_restriction,
        "reduced_equivariance_residual": rpt.reduced_equivariance_residual,
        "branch_count": len(rpt.branches),
    }
    passed = rpt.equivariance_passed and \
        rpt.reduced_equivariance_residual <= 1e-8 and \
        all(b.classified for b in rpt.branches)
    return payload, passed, {
        "branches": (("vertex", "branch", "exponents", "coefficients",
                      "equal_groups", "zero_coordinates"), rows)}


def run():
    """Entry point with the documented exit-code contract."""
    try:
        main(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except SystemExit:
        raise
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except (ParseError, ModeUnavailable) as exc:
        # a mode the input cannot satisfy is an input error, not a failed check
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    except QuiverdynError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    run()
