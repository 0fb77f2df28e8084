"""Command-line front end: VERBS defines each verb's arguments once, and
_parse reads every command line against them and generates help from them.

Exit codes: 0 on success, 1 when a checked verdict fails (sheaf, excise,
verify), 2 on bad input of any kind: every QuivercalcError, including a bad
command line, ends as one line "error: <message>" on stderr.
"""
from __future__ import annotations

import functools
import json
import random
import re
import sys
from types import SimpleNamespace

from .digraph import (Digraph, QuivercalcError, check_names, classify_digraph,
                      make_closed_cover, standard_digraph, walks)
from .quiver import enumerate_paths, hom_is_finite
from .fincat import (FinCat, check_closed_sheaf, chain_poset_category,
                     cyclic_group_category, enumerate_reps, rep_count, rep_tuples,
                     rep_via_exit_limit, symmetric_group_category, validate_fincat,
                     walking_arrow_category)
from .cyccat import (EpiMor, cartesian_factor, compose_epi, compose_para,
                     dualize_para, enumerate_epi_degree1,
                     enumerate_para_transversal, format_epi, format_para,
                     lift_epi_degree1, para_phi, parse_epi, parse_para,
                     project_para_to_epi)
from .hochschild import compute_hh, psi, trace_obj, power_endo
# fact_homology is not called here; perfbench's traced run wraps this name
from .emm import (CircleEndo, MObject, _blocks, circle_object,
                  compose_m, enumerate_directed_cycles, fact_count, fact_homology,
                  fact_tuples, hom_m, make_excision_site, mobject_of_digraph,
                  verify_excision)


def _load(path: str, what: str, parse):
    """Build one input from a JSON file; any failure is a QuivercalcError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise QuivercalcError(f"cannot read {path}: {e}")
    except ValueError as e:
        raise QuivercalcError(f"{path} is not valid JSON: {e}")
    except RecursionError:
        raise QuivercalcError(f"{path} is not valid JSON: nested too deeply")
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
        if not isinstance(data, dict) or "graph" not in data:
            raise QuivercalcError("site JSON needs 'graph'")
        graph, cuts = data["graph"], data.get("cut_edges", [])
        graph = graph if graph == "circle" else Digraph.from_json(graph)
        check_names(cuts, "cut edge")
        return make_excision_site(graph, cuts)
    return _load(path, "site", parse)


def _parse_cover_piece(text: str, what: str):
    vs, sep, es = text.partition(";")
    if not sep:
        raise QuivercalcError(f"{what} must look like 'v1,v2;e1,e2' (';' required)")
    verts = [v for v in vs.split(",") if v]
    edges = [e for e in es.split(",") if e]
    return verts, edges


def _pairs(keys, names, indices) -> str:
    """'key:name' for each key, its name read from its index into names."""
    return " ".join(f"{k}:{names[i]}" for k, i in zip(keys, indices))


def _write_lines(lines: list[str]) -> None:
    """Print each line, in one write: the same bytes as one print per line."""
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _write_listing(rows, total: int, limit: int, last: str) -> None:
    """Write the rows shown, how many more there are, and the last line."""
    more = [f"... and {total - limit} more"] if total > limit else []
    _write_lines([*rows, *more, last])


# --- verbs -------------------------------------------------------------------


def cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    shape = classify_digraph(g)
    valence = shape.valences
    _write_lines([
        f"vertices: {len(g.vertices)}  edges: {len(g.edges)}",
        f"connected: {'yes' if shape.connected else 'no'}",
        f"cyclically directed: {'yes' if shape.cyclically_directed else 'no'}",
        f"linearly directed: {'yes' if shape.linearly_directed else 'no'}",
        *(f"valence {v}: in={valence[v].incoming} out={valence[v].outgoing}"
          for v in g.vertices)])
    return 0


def cmd_paths(args) -> int:
    g = _load_graph(args.graph)
    finite, total = hom_is_finite(g, args.src, args.tgt)
    words = walks(g, args.src, args.tgt, args.max_len)
    lines = ["·".join(w) if w else "(empty)" for w in words]
    if finite and len(words) == total:
        lines.append(f"count: {len(words)} (complete; {total} in total)")
    else:
        lines.append(f"count: {len(words)} (truncated at length {args.max_len}; "
                     f"{total if finite else 'infinitely many'} in total)")
    _write_lines(lines)
    return 0


def cmd_reps(args) -> int:
    cat = _load_cat(args.cat)
    g = _load_graph(args.graph)
    count, nv, eids = rep_count(cat, g), len(g.vertices), [e.eid for e in g.edges]
    mors = [f.mid for f in cat.morphisms]
    rows = [f"{_pairs(g.vertices, cat.objects, x)} | {_pairs(eids, mors, x[nv:])}"
            .strip(" |") for x in rep_tuples(cat, g, args.limit)]
    _write_listing(rows, count, args.limit, f"count: {count}")
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
    _write_lines([*(f"class {i}: {cls.rep}  {{{', '.join(cls.members)}}}"
                    for i, cls in enumerate(table.classes)),
                  f"classes: {len(table)}"])
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
    lines = [f"morphism: {format_para(f)}", f"dual: {format_para(dualize_para(f))}"]
    if args.r != 1:
        lines.append(f"inflation by {args.r}: {format_para(para_phi(args.r, f))}")
    lines.append(f"projection: {format_epi(project_para_to_epi(f))}")
    _write_lines(lines)
    return 0


def cmd_epi(args) -> int:
    f = parse_epi(args.mor)
    if args.compose:
        h = compose_epi(parse_epi(args.compose), f)
        _write_lines([f"composite: {format_epi(h)}", f"degree: {h.degree}"])
        return 0
    cover, cyc = cartesian_factor(f)
    _write_lines([f"morphism: {format_epi(f)}", f"degree: {f.degree}",
                  f"cover: {format_epi(cover)}", f"winding part: {format_epi(cyc)}"])
    return 0


def cmd_cycles(args) -> int:
    g = _load_graph(args.graph)
    _write_lines(["·".join(z.edges) if z.edges else f"constant at {z.vertex}"
                  for z in enumerate_directed_cycles(g, args.max_len)])
    return 0


def cmd_hom_m(args) -> int:
    src = _load_mobject(args.source)
    tgt = _load_mobject(args.target)
    mors, count, truncated = hom_m(src, tgt, max_len=args.max_len,
                                   max_weight=args.max_weight,
                                   path_cap=args.path_cap, limit=args.limit)
    _write_listing(map(_describe_mmor, mors), count, args.limit,
                   f"count: {count} ({'truncated' if truncated else 'complete'})")
    return 0


def _describe_mmor(f) -> str:
    bits = []
    for j, part in enumerate(f.circle_parts):
        if isinstance(part, CircleEndo):
            bits.append(f"circle{j} ← circle{part.circle} ^{part.weight}")
        elif part.cycle.is_constant:
            bits.append(f"circle{j} ← quiver{part.quiver}@{part.cycle.vertex}")
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
    size, mors = fact_count(cat, m), [f.mid for f in cat.morphisms]
    classes = [c.rep for c in compute_hh(cat).classes] if m.circles else ()
    quivers = [([e.eid for e in q.edges], a + len(q.vertices), b)
               for q, (a, b) in zip(m.quivers, _blocks(m))]
    rows = [" ".join([*(classes[i] for i in x[:m.circles]),
                      *(f"({_pairs(eids, mors, x[a:b])})" for eids, a, b in quivers)])
            .strip() or "(unit)" for x in fact_tuples(cat, m, args.limit)]
    _write_listing(rows, size, args.limit, f"size: {size}")
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
                mors = hom_m(src, circle_object(), max_len=n, max_weight=1)[0]
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


def _count(least: int):
    """A value type: an integer that is at least `least`."""
    def count(text: str) -> int:
        n = int(text)
        if n < least:
            raise QuivercalcError(f"must be >= {least}, not {n}")
        return n
    return count


def _arg(*names, **kw):
    """One argument of a verb, as (names, keywords): an option if its names
    start with "-", else a positional; _grammar reads the keywords."""
    return names, kw


_GRAPH = _arg("--graph", required=True)
_CAT = _arg("--cat", required=True)
_MAX_LEN = _arg("--max-len", type=_count(0), default=6)
_LIMIT = _arg("--limit", type=_count(0), default=200)

# verb -> (help, handler, its arguments in order); the one place they are defined
VERBS = {
    "classify": ("shape of a digraph", cmd_classify, [_GRAPH]),
    "paths": ("paths between two vertices", cmd_paths,
              [_GRAPH, _arg("src"), _arg("tgt"), _MAX_LEN]),
    "reps": ("representations of a graph in a category", cmd_reps,
             [_CAT, _GRAPH, _LIMIT]),
    "sheaf": ("check gluing along a closed cover", cmd_sheaf,
              [_CAT, _GRAPH, _arg("--left", required=True, metavar="V,V;E,E"),
               _arg("--right", required=True, metavar="V,V;E,E")]),
    "hh": ("trace classes of a category", cmd_hh, [_CAT]),
    "psi": ("power operator on a trace class", cmd_psi,
            [_CAT, _arg("--r", type=_count(1), default=2), _arg("endo")]),
    "trace": ("trace class of an object's identity", cmd_trace, [_CAT, _arg("object")]),
    "para": ("paracyclic morphism arithmetic", cmd_para,
             [_arg("mor", metavar="'m n : g0 g1 ...'"),
              _arg("compose", nargs="?", default=None, metavar="'n p : h0 ...'",
                   help="compose (applied second)"),
              _arg("--r", type=_count(1), default=1)]),
    "epi": ("epicyclic morphism arithmetic", cmd_epi,
            [_arg("mor", metavar="'m n : v0 ... | l0 ...'"),
             _arg("compose", nargs="?", default=None)]),
    "cycles": ("directed cycles of a graph", cmd_cycles, [_GRAPH, _MAX_LEN]),
    "hom-m": ("maps between one-manifold objects", cmd_hom_m,
              [_arg("source"), _arg("target"), _MAX_LEN,
               _arg("--max-weight", type=_count(1), default=3),
               _arg("--path-cap", type=_count(0), default=4), _LIMIT]),
    "fact": ("invariant of a one-manifold object", cmd_fact,
             [_CAT, _arg("--m", dest="mobject", required=True), _LIMIT]),
    "excise": ("check cut-and-glue for a site", cmd_excise,
               [_CAT, _arg("--site", required=True)]),
    "dot": ("emit graphviz", cmd_dot, [_GRAPH]),
    "verify": ("run the built-in check battery", cmd_verify,
               [_arg("--seed", type=int, default=0)]),
}


_DESCRIPTION = ("quiver representations, cyclic morphism arithmetic, trace "
               "classes, and cut-and-glue checks")
_HELP = object()  # the entry of -h and --help
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$").match


@functools.cache
def _grammar(verb: str):
    """One verb's grammar, read from its VERBS entry: option name -> (dest,
    name, type), the positionals as [(dest, name, type)] in order, the
    required arguments as [(dest, name)], the namespace of defaults with
    the verb and its handler, and the verb's help text.  The keywords read
    are required, default, type (called on each value, str if none), dest,
    nargs="?" (a positional that may be left out), metavar and help."""
    about, func, arguments = VERBS[verb]
    options, positionals, required = {"-h": _HELP, "--help": _HELP}, [], []
    defaults, usage, notes = {"verb": verb, "func": func}, [], []
    for names, kw in arguments:
        if names[0].startswith("-"):
            dest = kw.get("dest") or names[-1].lstrip("-").replace("-", "_")
            name, needed = "/".join(names), kw.get("required")
            shown = f"{name} {kw.get('metavar', dest.upper())}"
            options.update(dict.fromkeys(names, (dest, name, kw.get("type", str))))
        else:
            dest, needed = names[0], kw.get("nargs") != "?"
            name = shown = kw.get("metavar", dest)
            positionals.append((dest, name, kw.get("type", str)))
        if needed:
            required.append((dest, name))
        defaults[dest] = kw.get("default")
        usage.append(shown if needed else f"[{shown}]")
        notes += [f"  {shown}  {kw['help']}"] if "help" in kw else []
    help_ = [f"usage: quivercalc {verb} [-h] {' '.join(usage)}", "", about, *notes]
    return options, positionals, required, defaults, "\n".join(help_) + "\n"


def _option(options: dict, word: str):
    """What a word that starts with "-" and comes before "--" is: (entry,
    its value after "=" or None) for an option, which a unique prefix of a
    "--" name also names; (None, None) for an unknown option; None for a
    positional (a lone "-", a negative number, or a word with a space)."""
    name, eq, value = word.partition("=")
    value = value if eq else None
    if name in options:
        return options[name], value
    if word[1:2] == "-":
        matches = [option for option in options if option.startswith(name)]
        if len(matches) > 1:
            raise QuivercalcError(f"ambiguous option: {word} could match "
                                  f"{', '.join(matches)}")
        if matches:
            return options[matches[0]], value
    return None if len(word) == 1 or _NEGATIVE(word) or " " in word else (None, None)


def _parse(argv: list):
    """The namespace of one command line, or the help text it asks for.

    argv is a verb and its words.  An option (see _option) takes the next
    word as its value unless it carries one after "=", and the last of a
    repeated option wins; every other word, and every word after "--",
    fills the next free positional.  Every fault is a QuivercalcError."""
    verb = argv[0] if argv else "-"
    if verb not in VERBS:
        if verb == "-h" or (len(verb) > 2 and "--help".startswith(verb)):
            width = max(map(len, VERBS))
            return "\n".join(["usage: quivercalc [-h] VERB ...", "", _DESCRIPTION, "",
                              *(f"  {v:{width}}  {VERBS[v][0]}" for v in VERBS)]) + "\n"
        if verb.startswith("-"):
            raise QuivercalcError("the following arguments are required: verb")
        raise QuivercalcError(f"argument verb: invalid choice: {verb!r} (choose "
                              f"from {', '.join(map(repr, VERBS))})")
    options, positionals, required, defaults, help_ = _grammar(verb)
    values, given, extras = dict(defaults), set(), []
    words, free, dashes = iter(argv[1:]), iter(positionals), False
    for word in words:
        if word == "--" and not dashes:
            dashes = True
            continue
        found = None if dashes or word[:1] != "-" else _option(options, word)
        entry, value = (next(free, None), word) if found is None else found
        if entry is None:               # an unknown option or one word too many
            extras.append(word)
            continue
        if entry is _HELP:
            return help_
        dest, name, type_ = entry
        if value is None:
            value = next(words, "--")
            if value == "--" or (value[:1] == "-" and _option(options, value)):
                raise QuivercalcError(f"argument {name}: expected one argument")
        try:
            value = type_(value)
        except QuivercalcError as e:
            raise QuivercalcError(f"argument {name}: {e}") from None
        except (TypeError, ValueError):
            raise QuivercalcError(f"argument {name}: invalid {type_.__name__} "
                                  f"value: {value!r}") from None
        values[dest] = value
        given.add(dest)
    missing = ", ".join(name for dest, name in required if dest not in given)
    if missing:
        raise QuivercalcError(f"the following arguments are required: {missing}")
    if extras:
        raise QuivercalcError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    """Run one command line and return its exit code: help, for the whole
    command line or one verb, is printed and returns 0, and a bad command
    line, like any other bad input, is one line "error: ..." on stderr and
    returns 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return 0
        return args.func(args)
    except QuivercalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
