"""Command-line front end.

Exit codes: 0 on success, 1 when a checked verdict fails (sheaf, excise,
verify), 2 on bad input of any kind: every QuivercalcError, including a bad
command line, ends as one line "error: <message>" on stderr.
"""
from __future__ import annotations

import argparse
import json
import random
import sys

from .digraph import (Digraph, QuivercalcError, classify_digraph,
                      make_closed_cover, standard_digraph)
from .quiver import enumerate_paths, hom_is_finite
from .fincat import (FinCat, Representation, check_closed_sheaf,
                     chain_poset_category, cyclic_group_category,
                     enumerate_reps, rep_tuples, rep_via_exit_limit,
                     symmetric_group_category, validate_fincat,
                     walking_arrow_category)
from .cyccat import (EpiMor, cartesian_factor, compose_epi, compose_para,
                     dualize_para, enumerate_epi_degree1,
                     enumerate_para_transversal, format_epi, format_para,
                     lift_epi_degree1, para_phi, parse_epi, parse_para,
                     project_para_to_epi)
from .hochschild import compute_hh, psi, trace_obj, power_endo
# fact_homology is no longer called here; perfbench's traced run still
# wraps it under this name
from .emm import (CircleEndo, MObject, VertexToCircle,
                  enumerate_directed_cycles, fact_homology, fact_namer,
                  fact_tuples, compose_m, hom_m, make_excision_site,
                  verify_excision, circle_object, mobject_of_digraph)


def _load(path: str, what: str, parse):
    """Build one input from a JSON file; any failure is a QuivercalcError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise QuivercalcError(f"cannot read {path}: {e}")
    except ValueError as e:
        raise QuivercalcError(f"{path} is not valid JSON: {e}")
    try:
        return parse(data)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise QuivercalcError(f"bad {what} in {path}: {e}") from e


def _load_graph(path: str) -> Digraph:
    return _load(path, "digraph", Digraph.from_json)


def _load_cat(path: str) -> FinCat:
    def parse(data) -> FinCat:
        cat = FinCat.from_json(data)
        validate_fincat(cat)
        return cat
    return _load(path, "category", parse)


def _load_mobject(path: str) -> MObject:
    return _load(path, "object", MObject.from_json)


def _load_site(path: str):
    def parse(data):
        if data.get("graph") == "circle":
            return make_excision_site("circle")
        return make_excision_site(Digraph.from_json(data["graph"]),
                                  data.get("cut_edges", []))
    return _load(path, "site", parse)


def _parse_cover_piece(text: str, what: str):
    vs, sep, es = text.partition(";")
    if not sep:
        raise QuivercalcError(f"{what} must look like 'v1,v2;e1,e2' (';' required)")
    verts = [v for v in vs.split(",") if v]
    edges = [e for e in es.split(",") if e]
    return verts, edges


# --- verbs -------------------------------------------------------------------


def cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    shape = classify_digraph(g)
    print(f"vertices: {len(g.vertices)}  edges: {len(g.edges)}")
    print(f"connected: {'yes' if shape.connected else 'no'}")
    print(f"cyclically directed: {'yes' if shape.cyclically_directed else 'no'}")
    print(f"linearly directed: {'yes' if shape.linearly_directed else 'no'}")
    for v in g.vertices:
        val = shape.valences[v]
        print(f"valence {v}: in={val.incoming} out={val.outgoing}")
    return 0


def cmd_paths(args) -> int:
    g = _load_graph(args.graph)
    finite, exact = hom_is_finite(g, args.src, args.tgt)
    ps = enumerate_paths(g, args.src, args.tgt, args.max_len)
    for p in ps:
        print("(empty)" if not p.edges else "·".join(p.edges))
    if finite:
        print(f"count: {len(ps)} (complete; {exact} in total)")
    else:
        print(f"count: {len(ps)} (truncated at length {args.max_len}; "
              "infinitely many in total)")
    return 0


def cmd_reps(args) -> int:
    cat = _load_cat(args.cat)
    g = _load_graph(args.graph)
    reps = rep_tuples(cat, g)
    for x in reps[:args.limit]:
        r = Representation.from_indices(cat, g, x)
        vs = " ".join(f"{v}:{r.vertex_labels[v]}" for v in g.vertices)
        es = " ".join(f"{e.eid}:{r.edge_labels[e.eid]}" for e in g.edges)
        print(f"{vs} | {es}".strip(" |"))
    if len(reps) > args.limit:
        print(f"... and {len(reps) - args.limit} more")
    print(f"count: {len(reps)}")
    return 0


def cmd_sheaf(args) -> int:
    cat = _load_cat(args.cat)
    g = _load_graph(args.graph)
    cover = make_closed_cover(g, _parse_cover_piece(args.left, "--left"),
                              _parse_cover_piece(args.right, "--right"))
    v = check_closed_sheaf(cat, cover)
    print(f"whole: {v.total}  left: {v.left}  right: {v.right}  "
          f"intersection: {v.intersection}  fiber product: {v.fiber_product}")
    if v.ok:
        print("verdict: restrictions glue perfectly")
        return 0
    print(f"verdict: FAILED ({v.witness})")
    return 1


def cmd_hh(args) -> int:
    cat = _load_cat(args.cat)
    table = compute_hh(cat)
    for i, cls in enumerate(table.classes):
        print(f"class {i}: {cls.rep}  {{{', '.join(cls.members)}}}")
    print(f"classes: {len(table)}")
    return 0


def cmd_psi(args) -> int:
    cat = _load_cat(args.cat)
    power = power_endo(cat, args.endo, args.r)
    cls = compute_hh(cat).class_of(power)
    print(f"psi_{args.r}({args.endo}) = class of {power}: "
          f"{cls.rep}  {{{', '.join(cls.members)}}}")
    return 0


def cmd_trace(args) -> int:
    cat = _load_cat(args.cat)
    cls = trace_obj(cat, args.object)
    print(f"trace({args.object}) = {cls.rep}  {{{', '.join(cls.members)}}}")
    return 0


def cmd_para(args) -> int:
    f = parse_para(args.mor)
    if args.compose:
        g = parse_para(args.compose)
        print(f"composite: {format_para(compose_para(g, f))}")
        return 0
    print(f"morphism: {format_para(f)}")
    print(f"dual: {format_para(dualize_para(f))}")
    if args.r != 1:
        print(f"inflation by {args.r}: {format_para(para_phi(args.r, f))}")
    e = project_para_to_epi(f)
    print(f"projection: {format_epi(e)}")
    return 0


def cmd_epi(args) -> int:
    f = parse_epi(args.mor)
    if args.compose:
        g = parse_epi(args.compose)
        h = compose_epi(g, f)
        print(f"composite: {format_epi(h)}")
        print(f"degree: {h.degree}")
        return 0
    print(f"morphism: {format_epi(f)}")
    print(f"degree: {f.degree}")
    cover, cyc = cartesian_factor(f)
    print(f"cover: {format_epi(cover)}")
    print(f"winding part: {format_epi(cyc)}")
    return 0


def cmd_cycles(args) -> int:
    g = _load_graph(args.graph)
    for z in enumerate_directed_cycles(g, args.max_len):
        if z.is_constant:
            print(f"constant at {z.vertex}")
        else:
            print("·".join(z.edges))
    return 0


def cmd_hom_m(args) -> int:
    src = _load_mobject(args.source)
    tgt = _load_mobject(args.target)
    mors, truncated = hom_m(src, tgt, max_len=args.max_len,
                            max_weight=args.max_weight, path_cap=args.path_cap)
    for f in mors[:args.limit]:
        print(_describe_mmor(f))
    if len(mors) > args.limit:
        print(f"... and {len(mors) - args.limit} more")
    print(f"count: {len(mors)} ({'truncated' if truncated else 'complete'})")
    return 0


def _describe_mmor(f) -> str:
    bits = []
    for j, part in enumerate(f.circle_parts):
        if isinstance(part, CircleEndo):
            bits.append(f"circle{j} ← circle{part.circle} ^{part.weight}")
        elif isinstance(part, VertexToCircle):
            bits.append(f"circle{j} ← quiver{part.quiver}@{part.vertex}")
        else:
            bits.append(f"circle{j} ← quiver{part.quiver}"
                        f"[{'·'.join(part.cycle.edges)}]^{part.weight}")
    for b, part in enumerate(f.quiver_parts):
        vm = ",".join(f"{k}→{v}" for k, v in sorted(part.mor.vertex_map.items()))
        bits.append(f"quiver{b} ↪ quiver{part.quiver}({vm})")
    return "; ".join(bits) if bits else "(empty map)"


def cmd_fact(args) -> int:
    cat = _load_cat(args.cat)
    m = _load_mobject(args.mobject)
    elems = fact_tuples(cat, m)
    name = fact_namer(cat, m)
    for classes, reps in map(name, elems[:args.limit]):
        cbit = " ".join(c.rep for c in classes)
        rbit = " ".join("(" + " ".join(f"{e.eid}:{r.edge_labels[e.eid]}"
                                       for e in r.graph.edges) + ")"
                        for r in reps)
        print((cbit + " " + rbit).strip() or "(unit)")
    if len(elems) > args.limit:
        print(f"... and {len(elems) - args.limit} more")
    print(f"size: {len(elems)}")
    return 0


def cmd_excise(args) -> int:
    cat = _load_cat(args.cat)
    site = _load_site(args.site)
    v = verify_excision(cat, site)
    print(f"stage 0: {v.stage0}  stage 1: {v.stage1}  "
          f"coequalizer: {v.coequalizer}  glued: {v.direct}")
    if v.ok:
        print("verdict: coequalizer matches the glued invariant")
        return 0
    print(f"verdict: FAILED ({v.note})")
    return 1


def cmd_dot(args) -> int:
    g = _load_graph(args.graph)
    sys.stdout.write(g.to_dot())
    return 0


# --- the built-in check battery ----------------------------------------------


def _expect(cond, msg="") -> None:
    """The battery's check: unlike assert, it still runs under python -O."""
    if not cond:
        raise AssertionError(msg)


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _adjacency_path_count(g: Digraph, u: str, v: str, max_len: int) -> int:
    n = len(g.vertices)
    idx = {x: i for i, x in enumerate(g.vertices)}
    a = [[0] * n for _ in range(n)]
    for e in g.edges:
        a[idx[e.src]][idx[e.tgt]] += 1
    total = 1 if u == v else 0
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(max_len):
        power = _mat_mul(power, a)
        total += power[idx[u]][idx[v]]
    return total


def _necklaces(k: int, n: int) -> int:
    """Primitive cyclic sequences over k letters, length n, up to rotation:
    (1/n) * sum over d | n of mu(d) k^(n/d)."""
    def mu(d: int) -> int:
        out, x, p = 1, d, 2
        while p * p <= x:
            if x % p == 0:
                x //= p
                if x % p == 0:
                    return 0
                out = -out
            p += 1
        if x > 1:
            out = -out
        return out

    return sum(mu(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def _battery(seed: int):
    rng = random.Random(seed)
    checks = []

    def check(name):
        def deco(fn):
            checks.append((name, fn))
            return fn
        return deco

    @check("path counts match adjacency powers")
    def _():
        graphs = [standard_digraph("cyclic", 3), standard_digraph("bouquet", 2),
                  standard_digraph("linear", 3),
                  Digraph(["a", "b"], [("e", "a", "b"), ("f", "a", "b"),
                                       ("l", "b", "b")])]
        for g in graphs:
            for u in g.vertices:
                for v in g.vertices:
                    got = len(enumerate_paths(g, u, v, 5))
                    want = _adjacency_path_count(g, u, v, 5)
                    _expect(got == want, f"{u}->{v}: {got} vs {want}")

    @check("representation enumeration matches exit-path limit")
    def _():
        cats = [walking_arrow_category(), cyclic_group_category(3),
                chain_poset_category(3)]
        graphs = [standard_digraph("interval"), standard_digraph("cyclic", 2),
                  standard_digraph("bouquet", 1)]
        for c in cats:
            for g in graphs:
                direct = [r.key() for r in enumerate_reps(c, g)]
                via = [r.key() for r in rep_via_exit_limit(c, g)]
                _expect(direct == via, f"{c!r} on {g!r}")

    @check("restrictions glue along closed covers")
    def _():
        g = standard_digraph("linear", 2)
        cover = make_closed_cover(g, (["0", "1"], ["e0"]), (["1", "2"], ["e1"]))
        for c in [walking_arrow_category(), cyclic_group_category(2),
                  symmetric_group_category(3)]:
            v = check_closed_sheaf(c, cover)
            _expect(v.ok, v.witness)

    @check("winding degree is multiplicative")
    def _():
        for _i in range(200):
            f = _random_epi(rng, 3, 3)
            g = _random_epi(rng, 3, 3, m=f.n)
            _expect(compose_epi(g, f).degree == f.degree * g.degree)

    @check("projection to winding functors is functorial")
    def _():
        for f in enumerate_para_transversal(2, 2):
            for g in enumerate_para_transversal(2, 3):
                lhs = project_para_to_epi(compose_para(g, f))
                rhs = compose_epi(project_para_to_epi(g), project_para_to_epi(f))
                _expect(lhs == rhs)

    @check("degree-one functors all lift through the projection")
    def _():
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for e in enumerate_epi_degree1(m, n):
                    _expect(project_para_to_epi(lift_epi_degree1(e)) == e)

    @check("trace class counts for small groups")
    def _():
        for cat, want in [(cyclic_group_category(2), 2),
                          (cyclic_group_category(3), 3),
                          (cyclic_group_category(4), 4),
                          (symmetric_group_category(3), 3)]:
            _expect(len(compute_hh(cat)) == want)

    @check("power operators compose and fix unit traces")
    def _():
        cat = symmetric_group_category(3)
        for e in cat.endomorphisms():
            for r in (1, 2, 3):
                for s in (1, 2, 3):
                    _expect(psi(cat, s, psi(cat, r, e)) == psi(cat, r * s, e))
        for r in range(1, 7):
            _expect(psi(cat, r, trace_obj(cat, "*")) == trace_obj(cat, "*"))

    @check("circle maps from bouquets count primitive necklaces")
    def _():
        for k in (1, 2, 3):
            g = standard_digraph("bouquet", k)
            src = mobject_of_digraph(g)
            for n in (1, 2, 3, 4):
                mors, _tr = hom_m(src, circle_object(), max_len=n, max_weight=1)
                got = sum(1 for f in mors
                          if f.circle_parts[0].__class__.__name__ == "CycleToCircle"
                          and f.circle_parts[0].cycle.length == n)
                _expect(got == _necklaces(k, n), f"k={k} n={n}")

    @check("cut-and-glue coequalizer matches the glued invariant")
    def _():
        cats = [walking_arrow_category(), cyclic_group_category(3)]
        sites = [make_excision_site(standard_digraph("interval"), ["e0"]),
                 make_excision_site(standard_digraph("cyclic", 2), ["e0"]),
                 make_excision_site("circle")]
        for c in cats:
            for s in sites:
                v = verify_excision(c, s)
                _expect(v.ok, v.note)

    @check("composition of object maps is associative")
    def _():
        pool = [mobject_of_digraph(standard_digraph("point")),
                mobject_of_digraph(standard_digraph("interval")),
                mobject_of_digraph(standard_digraph("cyclic", 2)),
                circle_object()]
        homs = {}
        for a in range(len(pool)):
            for b in range(len(pool)):
                homs[a, b] = hom_m(pool[a], pool[b], max_len=2,
                                   max_weight=2, path_cap=2)[0]
        for _i in range(300):
            a, b, c, d = (rng.randrange(len(pool)) for _ in range(4))
            if not (homs[a, b] and homs[b, c] and homs[c, d]):
                continue
            f = rng.choice(homs[a, b])
            g = rng.choice(homs[b, c])
            h = rng.choice(homs[c, d])
            _expect(compose_m(h, compose_m(g, f)) ==
                    compose_m(compose_m(h, g), f))

    return checks


def _random_epi(rng: random.Random, max_m: int, max_n: int, m: int | None = None):
    m = m if m is not None else rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    degree = rng.randint(1, 3)
    total = degree * n
    cuts = sorted(rng.randint(0, total) for _ in range(m - 1))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    v0 = rng.randrange(n)
    vmap, partial = [], 0
    for v in range(m):
        vmap.append((v0 + partial) % n)
        partial += lengths[v]
    return EpiMor(m, n, vmap, lengths)


def cmd_verify(args) -> int:
    failures = 0
    checks = _battery(args.seed)
    for name, fn in checks:
        try:
            fn()
        except AssertionError as e:
            failures += 1
            print(f"[FAIL] {name}: {e}")
        else:
            print(f"[ok] {name}")
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


# --- wiring -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like any other bad input."""

    def error(self, message):
        raise QuivercalcError(message)


def _count(least: int):
    """An argparse type: an integer that is at least `least`."""
    def count(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, not {n}")
        return n
    return count


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="quivercalc",
        description="quiver representations, cyclic morphism arithmetic, "
                    "trace classes, and cut-and-glue checks")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="shape of a digraph")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("paths", help="paths between two vertices")
    p.add_argument("--graph", required=True)
    p.add_argument("src")
    p.add_argument("tgt")
    p.add_argument("--max-len", type=_count(0), default=6)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("reps", help="representations of a graph in a category")
    p.add_argument("--cat", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--limit", type=_count(0), default=200)
    p.set_defaults(func=cmd_reps)

    p = sub.add_parser("sheaf", help="check gluing along a closed cover")
    p.add_argument("--cat", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--left", required=True, metavar="V,V;E,E")
    p.add_argument("--right", required=True, metavar="V,V;E,E")
    p.set_defaults(func=cmd_sheaf)

    p = sub.add_parser("hh", help="trace classes of a category")
    p.add_argument("--cat", required=True)
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("psi", help="power operator on a trace class")
    p.add_argument("--cat", required=True)
    p.add_argument("--r", type=_count(1), default=2)
    p.add_argument("endo")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("trace", help="trace class of an object's identity")
    p.add_argument("--cat", required=True)
    p.add_argument("object")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("para", help="paracyclic morphism arithmetic")
    p.add_argument("mor", metavar="'m n : g0 g1 ...'")
    p.add_argument("compose", nargs="?", default=None,
                   metavar="'n p : h0 ...'", help="compose (applied second)")
    p.add_argument("--r", type=_count(1), default=1)
    p.set_defaults(func=cmd_para)

    p = sub.add_parser("epi", help="epicyclic morphism arithmetic")
    p.add_argument("mor", metavar="'m n : v0 ... | l0 ...'")
    p.add_argument("compose", nargs="?", default=None)
    p.set_defaults(func=cmd_epi)

    p = sub.add_parser("cycles", help="directed cycles of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-len", type=_count(0), default=6)
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("hom-m", help="maps between one-manifold objects")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--max-len", type=_count(0), default=6)
    p.add_argument("--max-weight", type=_count(1), default=3)
    p.add_argument("--path-cap", type=_count(0), default=4)
    p.add_argument("--limit", type=_count(0), default=200)
    p.set_defaults(func=cmd_hom_m)

    p = sub.add_parser("fact", help="invariant of a one-manifold object")
    p.add_argument("--cat", required=True)
    p.add_argument("--m", dest="mobject", required=True)
    p.add_argument("--limit", type=_count(0), default=200)
    p.set_defaults(func=cmd_fact)

    p = sub.add_parser("excise", help="check cut-and-glue for a site")
    p.add_argument("--cat", required=True)
    p.add_argument("--site", required=True)
    p.set_defaults(func=cmd_excise)

    p = sub.add_parser("dot", help="emit graphviz")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("verify", help="run the built-in check battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except QuivercalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
