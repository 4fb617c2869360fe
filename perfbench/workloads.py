"""The four benchmark workloads: input generation, operation and output check.

Every workload runs in rounds. A round is a fixed mix of operations, so a
run that ends on a round boundary always has the same shares of each kind of
input whatever its seed or length. Round ``r`` of seed ``s`` is drawn from
``random.Random(f"{name}:{s}:{r}")``, so inputs are generated round by round
and the same seed always gives the same inputs.

Each workload names its ``speed_kernel`` (see speed.py) and provides

- ``round_inputs(seed, r)``: the list of operation inputs of round ``r``,
- ``describe(inp)``: a canonical text of one input, hashed into the digest,
- ``run(inp)``: the timed operation, which calls only the public API,
- ``check(inp, out)``: the output check, run outside the timed region; it
  raises ``CheckFailed`` when an output is wrong and may return data for
  ``finish``,
- ``finish(records)``: checks deferred to after the loop, reading each
  record's ``deferred`` entry (``jets-normalform`` cross-checks eigenvalues
  with sympy there, after peak memory is read).
"""

import hashlib
import json
import os
import random
from fractions import Fraction

from quiverdyn.builders import (build_quoq, build_subq, induce_on_quotients,
                                induce_on_subnetworks, subnetwork_network)
from quiverdyn.casestudy import casestudy_s10
from quiverdyn.centermanifold import check_cm_equivariance, cm_taylor
from quiverdyn.network import AdmissibleTemplate, ColouredNetwork, ResponseFamily
from quiverdyn.normalform import normal_form
from quiverdyn.polynomial import Poly
from quiverdyn.spectral import EndomorphismTuple, joint_spectrum, sn_decomposition
from quiverdyn.tuples import (PolyMap, PolyMapTuple, bracket_tuple,
                              check_equivariance, compose_tuple)

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    """An operation returned without raising, but its output is wrong."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def poly_text(p):
    return repr(sorted((e, str(c)) for e, c in p.terms.items()))


def close(a, b, rtol=1e-9):
    """Float agreement scaled by the larger magnitude (at least 1)."""
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# --- networks -----------------------------------------------------------------

def pair_network():
    """Two nodes, node 1 drives node 2, both with self-loops."""
    return ColouredNetwork(
        nodes=[("1", "c1"), ("2", "c2")],
        edges=[("e1", "1", "1", "s1"), ("e2", "2", "2", "s2"),
               ("e3", "1", "2", "b")])


CHAIN_EDGES = [("1", "2"), ("1", "3"), ("2", "3"), ("1", "4"), ("3", "4"),
               ("3", "5"), ("4", "5")]


def chain_network():
    """Five-node feedforward chain; every node and edge has its own colour."""
    nodes = [(str(i), f"c{i}") for i in range(1, 6)]
    edges = [(f"s{i}", str(i), str(i), f"ks{i}") for i in range(1, 6)]
    edges += [(f"e{k}", s, t, f"ke{k}")
              for k, (s, t) in enumerate(CHAIN_EDGES, start=1)]
    return ColouredNetwork(nodes, edges)


def two_type_network():
    """Three 'y' and two 'g' nodes with six quotients."""
    nodes = [("1", "y"), ("2", "y"), ("3", "y"), ("4", "g"), ("5", "g")]
    edges = [
        ("sy1", "1", "1", "sy"), ("sy2", "2", "2", "sy"),
        ("sy3", "3", "3", "sy"),
        ("sg4", "4", "4", "sg"), ("sg5", "5", "5", "sg"),
        ("b1", "3", "1", "b"), ("b2", "2", "1", "b"),
        ("b3", "3", "2", "b"), ("b4", "2", "2", "b"),
        ("b5", "1", "3", "b"), ("b6", "2", "3", "b"),
        ("o1", "1", "4", "o"), ("o2", "3", "5", "o"),
        ("r1", "4", "4", "r"), ("r2", "4", "5", "r"),
    ]
    return ColouredNetwork(nodes, edges)


def ring_network(n):
    """n same-coloured nodes, each with a self edge and a ring edge."""
    nodes = [(str(i), "c") for i in range(1, n + 1)]
    edges = [(f"s{i}", str(i), str(i), "s") for i in range(1, n + 1)]
    edges += [(f"r{i}", str(i), str(i % n + 1), "r") for i in range(1, n + 1)]
    return ColouredNetwork(nodes, edges)


def random_two_colour_network(n, catalogue_seed):
    """n nodes of colours 'y'/'g'; in-degree 2 everywhere.

    Each node has a self edge coloured by its node colour and one 'a' edge
    from a random node.
    """
    rng = random.Random(f"catalogue:{n}:{catalogue_seed}")
    colours = ["y"] * (n // 2 + 1) + ["g"] * (n - n // 2 - 1)
    rng.shuffle(colours)
    nodes = [(str(i + 1), colours[i]) for i in range(n)]
    edges = []
    for i in range(n):
        t = str(i + 1)
        edges.append((f"s{t}", t, t, "s" + colours[i]))
        edges.append((f"a{t}", str(rng.randrange(n) + 1), t, "a"))
    return ColouredNetwork(nodes, edges)


def relabel(N, rng):
    """The same network with new node and edge ids drawn at random.

    The new ids keep the natural order of the old ones. Builders search in
    that order, and a random permutation changes the cost of one
    build_quoq up to threefold (0.5 s against 1.4 s on one catalogue
    network), which would let the seed decide the result.
    """
    ids = N.node_ids()
    new = [str(i) for i in sorted(rng.sample(range(1, 1000), len(ids)))]
    nm = dict(zip(ids, new))
    eids = [f"e{i}" for i in sorted(rng.sample(range(1, 1000), len(N.edges)))]
    nodes = [(nm[n], c) for n, c in N.nodes]
    edges = [(eid, nm[s], nm[t], c)
             for eid, (_, s, t, c) in zip(eids, N.edges)]
    return ColouredNetwork(nodes, edges, N.internal_dim)


def network_text(N):
    return repr((N.nodes, N.edges, sorted(N.internal_dim.items())))


# --- exact-closure ------------------------------------------------------------

class ExactClosure:
    """Criterion-3 pipeline: induce, compose, bracket, exact equivariance.

    A round is one seed on each of the pair network, the chain network (both
    through the subnetwork quiver) and the two-type network (through the
    quotient quiver). Operations share nothing, so no cache can help.
    """

    name = "exact-closure"
    nominal_round_s = 1.3
    speed_kernel = "exact"
    kinds = (("pair", pair_network, induce_on_subnetworks),
             ("chain", chain_network, induce_on_subnetworks),
             ("two-type", two_type_network, induce_on_quotients))

    def __init__(self):
        self.networks = {k: f() for k, f, _ in self.kinds}
        self.induce = {k: ind for k, _, ind in self.kinds}

    @staticmethod
    def random_poly(rng, nvars):
        """One linear and one cubic term, coefficients in +-1..3.

        A fixed degree profile keeps the cost of an operation from varying
        much between seeds; constant and quadratic terms would triple the
        cost of a two-type operation, leaving too few per run for a tail.
        """
        terms = {}
        for deg in (1, 3):
            exps = [0] * nvars
            for _ in range(deg):
                exps[rng.randrange(nvars)] += 1
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
        return Poly(nvars, terms)

    def random_family(self, N, rng):
        """A random admissible response family: responses are symmetrized
        over slots that share an edge colour."""
        tpl = AdmissibleTemplate.of(N)
        responses = {}
        for colour, sig in sorted(tpl.slots.items()):
            nvars = tpl.response_nvars(N, colour)
            dims = tpl.slot_dims(N, colour)
            starts = [sum(dims[:i]) for i in range(len(dims))]
            outs = []
            for _ in range(N.internal_dim[colour]):
                p = self.random_poly(rng, nvars)
                for i in range(len(sig)):
                    for j in range(i + 1, len(sig)):
                        if sig[i][0] != sig[j][0]:
                            continue
                        for k in range(dims[i]):
                            var_map = list(range(nvars))
                            a, b = starts[i] + k, starts[j] + k
                            var_map[a], var_map[b] = b, a
                            p = (p + p.embed(nvars, var_map)) * Fraction(1, 2)
                outs.append(p)
            responses[colour] = PolyMap(outs, nvars=nvars)
        return ResponseFamily(N, responses)

    def round_inputs(self, seed, r):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        return [{"kind": k,
                 "F": self.random_family(self.networks[k], rng),
                 "G": self.random_family(self.networks[k], rng),
                 "check_seed": rng.randrange(2 ** 32)}
                for k, _, _ in self.kinds]

    def describe(self, inp):
        parts = [inp["kind"], str(inp["check_seed"])]
        for fam in (inp["F"], inp["G"]):
            for c in sorted(fam.responses):
                parts += [c] + [poly_text(p) for p in fam.responses[c].outputs]
        return "|".join(parts)

    def run(self, inp):
        N = self.networks[inp["kind"]]
        induce = self.induce[inp["kind"]]
        F = induce(N, inp["F"])
        G = induce(N, inp["G"])
        reports = [check_equivariance(F, mode="exact"),
                   check_equivariance(G, mode="exact")]
        # degree-3 compositions reach degree 9: rebuild with a larger cap
        F9 = PolyMapTuple(F.representation, F.components, F.param_dim, 9)
        G9 = PolyMapTuple(G.representation, G.components, G.param_dim, 9)
        C = compose_tuple(F9, G9)
        reports.append(check_equivariance(C, mode="exact"))
        B = bracket_tuple(F, G)
        reports.append(check_equivariance(B, mode="exact"))
        return {"F": F, "G": G, "C": C, "B": B, "reports": reports}

    def check(self, inp, out):
        for rep in out["reports"]:
            require(rep.passed and rep.max_residual() == 0,
                    f"exact residual {rep.max_residual()} != 0")
        F, G, C, B = out["F"], out["G"], out["C"], out["B"]
        rep = F.representation
        rng = random.Random(inp["check_seed"])
        points = {v: [rng.uniform(-1.0, 1.0) for _ in range(rep.dim[v])]
                  for v in rep.quiver.vertices}
        # sampled equivariance R_a F_s(x) = F_t(R_a x) at one point per vertex
        for T in (F, G, C, B):
            vals = {v: T.components[v].eval(x) for v, x in points.items()}
            for a, s, t in rep.quiver.arrows:
                R = [[float(x) for x in row] for row in rep.arrow_matrix[a]]
                Rx = [sum(r * x for r, x in zip(row, points[s])) for row in R]
                lhs = [sum(r * y for r, y in zip(row, vals[s])) for row in R]
                rhs = T.components[t].eval(Rx)
                require(all(close(p, q) for p, q in zip(lhs, rhs)),
                        f"sampled equivariance fails on arrow {a!r}")
        # the composition and the bracket have the values they should
        for v, x in points.items():
            Fv, Gv = F.components[v], G.components[v]
            gx, fx = Gv.eval(x), Fv.eval(x)
            require(all(close(p, q) for p, q in
                        zip(C.components[v].eval(x), Fv.eval(gx))),
                    f"composition value wrong at vertex {v!r}")
            n = len(x)
            want = [sum(Fv.outputs[i].diff(j).eval(x) * gx[j]
                        - Gv.outputs[i].diff(j).eval(x) * fx[j]
                        for j in range(n)) for i in range(n)]
            require(all(close(p, q) for p, q in
                        zip(B.components[v].eval(x), want)),
                    f"bracket value wrong at vertex {v!r}")

    def finish(self, records):
        pass


# --- ls-casestudy -------------------------------------------------------------

# The paper's three cases as signed terms of f(x, y) and g(y, x).
CASE_TERMS = {
    "a=0": ([(1, "lambda*{x}"), (-1, "{x}^2"), (1, "{y}")],
            [(-1, "{y}"), (1, "{x}")]),
    "b=0": ([(-1, "{x}"), (1, "{y}")],
            [(1, "{x}"), (1, "lambda*{y}"), (-1, "{y}^2")]),
    "ab-cd=0": ([(-1, "{x}"), (1, "{y}"), (1, "lambda"), (-1, "{x}^2")],
                [(-1, "{y}"), (1, "{x}")]),
}
VARIABLES = [("x", "y"), ("u", "v"), ("p", "q"), ("s", "w"), ("x1", "x2")]

# Invariants of the three paper cases (criteria 5 and 6).
CASE_EXPECT = {
    "a=0": {"kernel_dims": {"N1": 2, "N2": 1, "N3": 0},
            "exponents": [(0, 0), (0, 1), (1, 0), (1, 1)]},
    "b=0": {"kernel_dims": {"N1": 1, "N2": 1, "N3": 1},
            "exponents": [(0,), (1,)]},
    "ab-cd=0": {"kernel_dims": {"N1": 1, "N2": 1, "N3": 1},
                "exponents": [(0.5,), (0.5,)]},
}


class LSCaseStudy:
    """casestudy_s10 on the three paper cases, as seeded texts.

    A round is one operation per case. The seed picks the variable names,
    the order of the terms and how each coefficient is written (1 as 1, 2/2
    or 3/3), so the parser sees a new text every time while the polynomials,
    and with them the float Newton work, stay those of the paper. Rescaling
    the coefficients instead would change the Newton work by up to 25% per
    operation (3.5 to 6.0 s at the reference speed for case a=0), and a run
    holds only two operations of each case, so seeds would then spread the
    end-to-end times by more than any useful bound.
    """

    name = "ls-casestudy"
    nominal_round_s = 10.0
    speed_kernel = "float"
    cases = ("a=0", "b=0", "ab-cd=0")

    @staticmethod
    def texts(case, rng):
        x, y = rng.choice(VARIABLES)

        def side(head, terms):
            terms = list(terms)
            rng.shuffle(terms)
            out = []
            for c, mono in terms:
                k = rng.choice((1, 2, 3))
                coef = f"{abs(c) * k}/{k}" if k > 1 else f"{abs(c)}"
                sign = "-" if c < 0 else "+"
                out.append(f"{sign} {coef}*{mono.format(x=x, y=y)}")
            body = " ".join(out)
            return f"{head} = {body[2:] if body[0] == '+' else body}"

        f_terms, g_terms = CASE_TERMS[case]
        return side(f"f({x},{y})", f_terms), side(f"g({y},{x})", g_terms)

    def round_inputs(self, seed, r):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        return [{"kind": case, "case": case, "texts": self.texts(case, rng)}
                for case in self.cases]

    def describe(self, inp):
        return "|".join((inp["case"],) + inp["texts"])

    def run(self, inp):
        return casestudy_s10(*inp["texts"], inp["case"])

    def check(self, inp, rpt):
        want = CASE_EXPECT[inp["case"]]
        require(rpt.equivariance_passed, "assembled tuple not equivariant")
        require(rpt.kernel_dims == want["kernel_dims"],
                f"kernel dims {rpt.kernel_dims}")
        require(len(rpt.branches) == len(want["exponents"]),
                f"{len(rpt.branches)} branches")
        exps = sorted(tuple(b.exponents) for b in rpt.branches)
        require(exps == want["exponents"], f"branch exponents {exps}")
        for b in rpt.branches:
            require(b.r_squared >= 0.999, f"branch fit r^2 {b.r_squared}")
        require(rpt.reduced_equivariance_residual <= 1e-8,
                f"reduced residual {rpt.reduced_equivariance_residual}")
        if inp["case"] == "a=0":
            require(rpt.decoupled is True, "case a=0 not decoupled")

    def finish(self, records):
        pass


# --- quotient-enum ------------------------------------------------------------

# ring size -> operations per round: half the round, with ring-7 (the
# typical operation's cost) in the middle of the sorted round
RINGS = {6: 2, 7: 6, 8: 4}
CATALOGUE = [(n, s) for n in (7, 8, 9) for s in range(4)]


def quoq_digest(quiver, rep):
    """Label-free digest of a quotient quiver.

    Vertex order is fixed by canonical forms, so it does not depend on node
    ids; each 0/1 lifting matrix is summarized by its shape and the sorted
    fibre sizes (column sums), which are also id-free.
    """
    index = {v: i for i, v in enumerate(quiver.vertices)}
    dims = [rep.dim[v] for v in quiver.vertices]
    arrows = sorted(
        (index[s], index[t], len(rep.arrow_matrix[a]),
         tuple(sorted(int(sum(col)) for col in zip(*rep.arrow_matrix[a]))))
        for a, s, t in quiver.arrows)
    text = json.dumps([dims, arrows])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class QuotientEnum:
    """build_quoq on single-colour rings and on random two-colour networks.

    A round holds the rings of RINGS and every catalogue network once, each
    relabelled by the seed: half the operations are rings (bound by the
    factorial canonical form), half random networks (bound by fibration
    enumeration). Six of the twelve rings have seven nodes, which puts the
    median operation in the middle of a group of equal operations rather
    than on the edge between two groups of different cost, where it jumped
    by 20% between runs. The catalogue networks are drawn once
    from fixed generator seeds so that their outputs can be compared with
    references frozen in quotient_refs.json; relabelling changes neither
    their quotient quiver nor its digest.
    """

    name = "quotient-enum"
    nominal_round_s = 4.8
    speed_kernel = "combinatorial"

    def __init__(self):
        with open(os.path.join(HERE, "quotient_refs.json")) as fh:
            self.refs = json.load(fh)
        self.bases = self.base_networks()

    @staticmethod
    def base_networks():
        bases = {f"ring-{n}": ring_network(n) for n in RINGS}
        for n, s in CATALOGUE:
            bases[f"random-{n}-{s}"] = random_two_colour_network(n, s)
        return bases

    def round_inputs(self, seed, r):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        rings = [f"ring-{n}" for n, k in RINGS.items() for _ in range(k)]
        randoms = [f"random-{n}-{s}" for n, s in CATALOGUE]
        rng.shuffle(randoms)
        keys = [k for pair in zip(rings, randoms) for k in pair]
        return [{"kind": k, "key": k, "network": relabel(self.bases[k], rng)}
                for k in keys]

    def describe(self, inp):
        return inp["key"] + "|" + network_text(inp["network"])

    def run(self, inp):
        return build_quoq(inp["network"])

    def check(self, inp, out):
        quiver, rep, _, fibrations = out
        ref = self.refs[inp["key"]]
        require(len(quiver.vertices) == ref["vertices"],
                f"{len(quiver.vertices)} vertices, reference {ref['vertices']}")
        require(len(quiver.arrows) == ref["arrows"],
                f"{len(quiver.arrows)} arrows, reference {ref['arrows']}")
        require(quoq_digest(quiver, rep) == ref["digest"],
                "quotient quiver digest differs from the reference")
        for aid, phi in fibrations.items():
            problems = phi.verify()
            require(not problems, f"fibration {aid!r}: {problems[:1]}")

    def finish(self, records):
        pass


# --- jets-normalform ----------------------------------------------------------

JET_NODES = ("1", "2", "3")
JET_DEPS = {0: (0,), 1: (0, 1), 2: (0, 1, 2)}


class JetsNormalForm:
    """Center-manifold jets, normal form and spectra on a feedforward chain.

    The tuples live on the subnetwork quiver of the chain network's first
    three nodes (vertex dims 1, 2, 3); component i depends only on the
    nodes feeding node i, so every tuple is exactly equivariant. The linear
    part is lower triangular with planted eigenvalues: 0 at the driving
    node 1 (the center direction, shared by every vertex) and nonzero
    integers elsewhere. A zero planted elsewhere would leave some target
    vertex without a center direction while its source has one, and
    check_cm_equivariance then raises ValueError (nvars mismatch).

    A round has four operations: eigenvalue magnitudes up to 3 and up to
    100, each once with a linear part from a per-seed pool of two (so the
    module-level ad-matrix cache hits) and once with a fresh one (so it
    misses). Nonlinear terms are fresh in every operation.
    """

    name = "jets-normalform"
    nominal_round_s = 0.65
    speed_kernel = "exact"
    cm_degree = 4
    nf_grade = 1

    def __init__(self):
        N = subnetwork_network(chain_network(), JET_NODES)
        self.quiver, self.rep, _ = build_subq(N)
        self.n = len(JET_NODES)
        self.top = max(self.quiver.vertices, key=lambda v: self.rep.dim[v])

    def linear_part(self, rng, mag):
        n = self.n
        eigs = [0] + [rng.choice((-1, 1)) * rng.randint(1, mag)
                      for _ in range(n - 1)]
        L = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in JET_DEPS[i]:
                L[i][j] = eigs[i] if i == j else rng.randint(-2, 2)
        return L, sorted(eigs)

    def round_inputs(self, seed, r):
        pool_rng = random.Random(f"{self.name}:{seed}:pool")
        pool = {mag: [self.linear_part(pool_rng, mag) for _ in range(2)]
                for mag in (3, 100)}
        rng = random.Random(f"{self.name}:{seed}:{r}")
        out = []
        for mag in (3, 100):
            for source in ("pool", "fresh"):
                L, eigs = (pool[mag][r % 2] if source == "pool"
                           else self.linear_part(rng, mag))
                out.append({"kind": f"{source}-{mag}", "L": L, "eigs": eigs,
                            "F": self.tuple_with(L, rng)})
        return out

    def tuple_with(self, L, rng):
        n = self.n
        polys = []
        for i in range(n):
            terms = {}
            for j in JET_DEPS[i]:
                if L[i][j]:
                    e = [0] * n
                    e[j] = 1
                    terms[tuple(e)] = L[i][j]
            for _ in range(3):
                e = [0] * n
                for _ in range(rng.randint(2, 3)):
                    e[rng.choice(JET_DEPS[i])] += 1
                terms[tuple(e)] = terms.get(tuple(e), 0) + rng.choice(
                    (-3, -2, -1, 1, 2, 3))
            polys.append(Poly(n, terms))
        comps = {}
        for v in self.quiver.vertices:
            d = self.rep.dim[v]
            comps[v] = PolyMap([Poly(d, {e[:d]: c for e, c in p.terms.items()})
                                for p in polys[:d]], nvars=d)
        return PolyMapTuple(self.rep, comps)

    def describe(self, inp):
        comps = inp["F"].components
        return "|".join([inp["kind"], repr(inp["L"])] + [
            poly_text(p) for v in sorted(comps) for p in comps[v].outputs])

    def run(self, inp):
        F = inp["F"]
        jet = cm_taylor(F, self.cm_degree)
        cm_report = check_cm_equivariance(jet)
        nf = normal_form(F, self.nf_grade)
        L = EndomorphismTuple.from_linearization(F)
        clusters = joint_spectrum(L)
        S, N = sn_decomposition(L)
        return {"cm": cm_report, "nf": nf, "clusters": clusters,
                "L": L, "S": S, "N": N}

    def check(self, inp, out):
        cm = out["cm"]
        require(cm.passed and cm.max_residual() == 0,
                f"center-manifold residual {cm.max_residual()} != 0")
        res = out["nf"].kernel_residuals
        require(all(r == 0 for r in res.values()),
                f"normal-form kernel residuals {res}")
        found = []
        for c in out["clusters"]:
            require(c.factor is not None and len(c.factor) == 2,
                    f"non-rational cluster {c.value}")
            found += [-c.factor[0]] * c.multiplicity[self.top]
        require(sorted(found) == inp["eigs"],
                f"joint spectrum {sorted(found)} != planted {inp['eigs']}")
        L, S, N = (out[k].matrices[self.top] for k in ("L", "S", "N"))
        require(all(S[i][j] + N[i][j] == L[i][j]
                    for i in range(self.n) for j in range(self.n)),
                "S + N != L")
        return {"L": inp["L"], "eigs": inp["eigs"]}

    def finish(self, records):
        """Cross-check the planted eigenvalues with sympy."""
        import sympy

        for rec in records:
            if rec["failed"]:
                continue
            inp = rec["deferred"]
            ev = sympy.Matrix(inp["L"]).eigenvals()
            got = sorted(int(k) for k, m in ev.items() for _ in range(m))
            if got != inp["eigs"]:
                rec["failed"] = True
                rec["error"] = "CheckFailed: sympy eigenvalues differ"


WORKLOADS = {w.name: w for w in (ExactClosure, LSCaseStudy, QuotientEnum,
                                 JetsNormalForm)}


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()
