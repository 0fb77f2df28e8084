"""Seeded inputs and the job list of each workload.

Every category, graph, object and site is generated here from the seed and
written as JSON; the program sees only those files and the argv of each job.
The seed shuffles declaration orders and names and draws the random
endomorphisms, cut edges and cyclic morphisms, so outputs differ from seed to
seed while the amount of work stays the same.

Each job carries a check that compares the CLI's stdout with an answer
derived in oracle.py from the generated data.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

WORKLOADS = ("tables", "glue", "walks")

# Passes pooled per block for the job-latency tail.  Each block size puts the
# 11th largest latency inside one job's samples, not at the edge between two
# jobs or among the rare pauses of 600 short calls: in the ladder of C_n
# tables, in the sheaf job behind 6 runs of the bouquet excision, and in the
# middle of the bouquet(3) cycles job behind 7 runs of paths on linear(3000).
TAIL_BLOCK = {"tables": 1, "glue": 6, "walks": 7}

LISTING_LIMIT = 200      # the CLI's default --limit for reps, hom-m and fact


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Callable[[str], str | None]   # stdout -> None, or what is wrong


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's inputs under workdir and return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return {"tables": _tables, "glue": _glue, "walks": _walks}[workload](
        rng, _Writer(workdir))


class _Writer:
    def __init__(self, root: Path):
        self.root = root
        self.n = 0

    def __call__(self, data) -> str:
        self.n += 1
        path = self.root / f"in{self.n}.json"
        path.write_text(json.dumps(data))
        return str(path)


def _names(rng: random.Random, prefix: str, k: int) -> list[str]:
    return [f"{prefix}{i}" for i in rng.sample(range(10 * k + 10), k)]


# --- categories -------------------------------------------------------------


class Cat:
    """A finite category as plain data, with its trace classes and its
    power map given by closed forms rather than by search."""

    def __init__(self, label, objects, morphisms, ids, compose, class_key,
                 class_count, power):
        self.label = label
        self.objects = objects          # names, in declaration order
        self.morphisms = morphisms      # (mid, src, tgt), in declaration order
        self.ids = ids
        self.compose = compose          # [g, f, g∘f]
        self.power = power              # (endo, r) -> endo^r
        self.ends = {mid: (s, t) for mid, s, t in morphisms}
        order = {mid: i for i, (mid, _, _) in enumerate(morphisms)}
        groups: dict = {}
        for mid, s, t in morphisms:
            if s == t:
                groups.setdefault(class_key(mid), []).append(mid)
        self.classes = sorted((sorted(ms, key=order.get) for ms in groups.values()),
                              key=lambda ms: order[ms[0]])
        assert len(self.classes) == class_count, label
        self.class_of = {m: c for c in self.classes for m in c}
        oi = {x: i for i, x in enumerate(objects)}
        self.h = [[0] * len(objects) for _ in objects]
        for _, s, t in morphisms:
            self.h[oi[s]][oi[t]] += 1

    def to_json(self) -> dict:
        return {"objects": self.objects,
                "morphisms": [{"id": m, "src": s, "tgt": t}
                              for m, s, t in self.morphisms],
                "ids": self.ids, "compose": self.compose}


def symmetric_group(rng: random.Random, n: int) -> Cat:
    perms = list(itertools.permutations(range(n)))
    rng.shuffle(perms)
    name = dict(zip(perms, _names(rng, "p", len(perms))))
    perm = {v: k for k, v in name.items()}
    compose = [[name[g], name[f], name[oracle.perm_compose(g, f)]]
               for g in perms for f in perms]
    return Cat(f"S{n}", ["*"], [(name[p], "*", "*") for p in perms],
               {"*": name[tuple(range(n))]}, compose,
               lambda m: oracle.cycle_type(perm[m]), oracle.partition_count(n),
               lambda m, r: name[oracle.perm_power(perm[m], r)])


def cyclic_group(rng: random.Random, n: int) -> Cat:
    elems = list(range(n))
    rng.shuffle(elems)
    name = dict(zip(elems, _names(rng, "g", n)))
    elem = {v: k for k, v in name.items()}
    compose = [[name[a], name[b], name[(a + b) % n]] for a in elems for b in elems]
    return Cat(f"C{n}", ["*"], [(name[a], "*", "*") for a in elems],
               {"*": name[0]}, compose, lambda m: elem[m], n,
               lambda m, r: name[elem[m] * r % n])


def chain_poset(rng: random.Random, n: int) -> Cat:
    """0 < 1 < ... < n-1, objects declared in a shuffled order."""
    obj = _names(rng, "o", n)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    rng.shuffle(pairs)
    name = dict(zip(pairs, _names(rng, "le", len(pairs))))
    compose = [[name[j, k], name[i, j], name[i, k]]
               for (i, j) in pairs for (j2, k) in pairs if j == j2]
    objects = list(obj)
    rng.shuffle(objects)
    return Cat(f"chain({n})", objects,
               [(name[i, j], obj[i], obj[j]) for i, j in pairs],
               {obj[i]: name[i, i] for i in range(n)}, compose,
               lambda m: m, n, lambda m, r: m)


# --- graphs -----------------------------------------------------------------


class Graph:
    def __init__(self, vertices, edges):
        self.vertices = vertices        # names
        self.edges = edges              # (eid, src, tgt)
        self.out = {v: [] for v in vertices}
        for _, s, t in edges:
            self.out[s].append(t)

    def to_json(self) -> dict:
        return {"vertices": self.vertices,
                "edges": [{"id": e, "src": s, "tgt": t} for e, s, t in self.edges]}

    def rep_count(self, cat: Cat, weight=None) -> int:
        """|Rep(graph, cat)| as a weighted H-colouring; weight(eid) gives
        the matrix an edge contributes (H unless the edge is subdivided)."""
        vi = {v: i for i, v in enumerate(self.vertices)}
        return oracle.h_colourings(
            cat.h, len(self.vertices),
            [(vi[s], vi[t], weight(e) if weight else cat.h)
             for e, s, t in self.edges])


def linear(rng: random.Random, p: int) -> Graph:
    vs, es = _names(rng, "v", p + 1), _names(rng, "e", p)
    return Graph(vs, [(es[i], vs[i], vs[i + 1]) for i in range(p)])


def cyclic(rng: random.Random, n: int) -> Graph:
    vs, es = _names(rng, "v", n), _names(rng, "e", n)
    return Graph(vs, [(es[i], vs[i], vs[(i + 1) % n]) for i in range(n)])


def bouquet(rng: random.Random, k: int) -> Graph:
    v = _names(rng, "v", 1)[0]
    return Graph([v], [(e, v, v) for e in _names(rng, "e", k)])


def mobject(circles: int, graphs) -> dict:
    return {"circles": circles, "quivers": [g.to_json() for g in graphs]}


# --- checks -------------------------------------------------------------------


def _exact(want: str) -> Callable[[str], str | None]:
    def check(out: str):
        if out == want:
            return None
        got = out.splitlines()
        for i, line in enumerate(want.splitlines()):
            if i >= len(got) or got[i] != line:
                return f"line {i + 1}: want {line!r}, got " \
                       f"{got[i] if i < len(got) else None!r}"
        return "unexpected trailing output"
    return check


def _class_text(cls) -> str:
    return f"{cls[0]}  {{{', '.join(cls)}}}"


def _listing_tail(lines: list[str], count: int) -> str | None:
    """Check the '... and N more' line of a listing capped at the limit."""
    shown = min(count, LISTING_LIMIT)
    if count > LISTING_LIMIT and lines[shown:shown + 1] != \
            [f"... and {count - LISTING_LIMIT} more"]:
        return f"listing of {count} is not capped at {LISTING_LIMIT}"
    return None


# --- tables: big category tables loaded and queried -----------------------


def _tables(rng: random.Random, write) -> list[Job]:
    cats = ([symmetric_group(rng, n) for n in (3, 4, 5)]
            + [cyclic_group(rng, n) for n in range(4, 41)]
            + [chain_poset(rng, n) for n in (5, 10, 20)])
    path = {c.label: write(c.to_json()) for c in cats}
    by = {c.label: c for c in cats}
    jobs = []
    for c in cats:
        want = "".join(f"class {i}: {_class_text(cls)}\n"
                       for i, cls in enumerate(c.classes))
        jobs.append(Job(f"hh {c.label}", ["hh", "--cat", path[c.label]],
                        _exact(want + f"classes: {len(c.classes)}\n")))
    s4 = by["S4"]
    for r in (2, 3, 10**5, 10**6):
        endo = rng.choice([m for m, _, _ in s4.morphisms])
        pw = s4.power(endo, r)
        want = f"psi_{r}({endo}) = class of {pw}: {_class_text(s4.class_of[pw])}\n"
        jobs.append(Job(f"psi S4 r={r}", ["psi", "--cat", path["S4"], "--r", str(r), endo],
                        _exact(want)))
    for label in ("S4", "C40", "chain(20)"):
        c = by[label]
        x = rng.choice(c.objects)
        want = f"trace({x}) = {_class_text(c.class_of[c.ids[x]])}\n"
        jobs.append(Job(f"trace {label}", ["trace", "--cat", path[label], x],
                        _exact(want)))
    return jobs


# --- glue: representations enumerated, pulled back and glued ---------------


def _excise_graph_site(cat: Cat, g: Graph, cuts: list[str]):
    """Stage p subdivides each cut edge into a chain of p + 2 edges, so a cut
    edge weighs H^(p+2); the glued invariant is |Rep(g)|."""
    def stage(p):
        hp = oracle.mat_pow(cat.h, p + 2)
        return g.rep_count(cat, lambda e: hp if e in cuts else cat.h)
    return stage(0), stage(1), g.rep_count(cat)


def _excise_circle_site(cat: Cat):
    """Stage p is the directed (p+1)-cycle; the glued invariant is one
    trace class."""
    return (oracle.trace(cat.h), oracle.trace(oracle.mat_pow(cat.h, 2)),
            len(cat.classes))


def _excise_job(cat_path: str, cat: Cat, site_path: str, label: str, sizes) -> Job:
    s0, s1, glued = sizes
    want = (f"stage 0: {s0}  stage 1: {s1}  coequalizer: {glued}  glued: {glued}\n"
            "verdict: coequalizer matches the glued invariant\n")
    return Job(f"excise {cat.label} {label}",
               ["excise", "--cat", cat_path, "--site", site_path], _exact(want))


def _reps_check(cat: Cat, g: Graph, count: int):
    def check(out: str):
        lines = out.splitlines()
        if lines[-1:] != [f"count: {count}"]:
            return f"want count {count}, got {lines[-1:]}"
        shown = lines[:min(count, LISTING_LIMIT)]
        if len(set(shown)) != len(shown):
            return "a representation is listed twice"
        for line in shown:
            vpart, _, epart = line.partition(" | ")
            lab = dict(x.split(":", 1) for x in vpart.split())
            elab = dict(x.split(":", 1) for x in epart.split())
            if set(lab) != set(g.vertices) or set(elab) != {e for e, _, _ in g.edges}:
                return f"{line!r} does not label every vertex and edge"
            for e, s, t in g.edges:
                if cat.ends.get(elab[e]) != (lab[s], lab[t]):
                    return f"{line!r}: {e} has the wrong endpoints"
        return _listing_tail(lines, count)
    return check


def _glue(rng: random.Random, write) -> list[Job]:
    s3, s4 = symmetric_group(rng, 3), symmetric_group(rng, 4)
    small = [s3, cyclic_group(rng, 3), chain_poset(rng, 2), chain_poset(rng, 3)]
    path = {c.label: write(c.to_json()) for c in small + [s4]}
    circle = write({"graph": "circle"})
    jobs = []

    b2 = bouquet(rng, 2)
    cuts = [e for e, _, _ in b2.edges]
    jobs.append(_excise_job(path["S3"], s3,
                            write({"graph": b2.to_json(), "cut_edges": cuts}),
                            "bouquet(2)", _excise_graph_site(s3, b2, cuts)))
    for cat in small:
        jobs.append(_excise_job(path[cat.label], cat, circle, "circle",
                                _excise_circle_site(cat)))
        c3 = cyclic(rng, 3)
        cut = [rng.choice(c3.edges)[0]]
        jobs.append(_excise_job(path[cat.label], cat,
                                write({"graph": c3.to_json(), "cut_edges": cut}),
                                "cyclic(3)", _excise_graph_site(cat, c3, cut)))

    line3 = linear(rng, 3)
    k = rng.choice((1, 2))
    vs, es = line3.vertices, [e for e, _, _ in line3.edges]
    left = ",".join(vs[:k + 1]) + ";" + ",".join(es[:k])
    right = ",".join(vs[k:]) + ";" + ",".join(es[k:])
    h = s4.h
    whole = oracle.total(oracle.mat_pow(h, 3))
    want = (f"whole: {whole}  left: {oracle.total(oracle.mat_pow(h, k))}  "
            f"right: {oracle.total(oracle.mat_pow(h, 3 - k))}  "
            f"intersection: {len(s4.objects)}  fiber product: {whole}\n"
            "verdict: restrictions glue perfectly\n")
    jobs.append(Job("sheaf S4 linear(3)",
                    ["sheaf", "--cat", path["S4"],
                     "--graph", write(line3.to_json()),
                     "--left", left, "--right", right], _exact(want)))

    b1 = bouquet(rng, 1)
    size = len(s4.classes) ** 2 * b1.rep_count(s4)

    def fact_check(out: str):
        lines = out.splitlines()
        if lines[-1:] != [f"size: {size}"]:
            return f"want size {size}, got {lines[-1:]}"
        return _listing_tail(lines, size)
    jobs.append(Job("fact S4 2 circles + bouquet(1)",
                    ["fact", "--cat", path["S4"],
                     "--m", write(mobject(2, [b1]))], fact_check))

    c3 = cyclic(rng, 3)
    jobs.append(Job("reps S4 cyclic(3)",
                    ["reps", "--cat", path["S4"], "--graph", write(c3.to_json())],
                    _reps_check(s4, c3, oracle.trace(oracle.mat_pow(s4.h, 3)))))
    return jobs


# --- walks: graph-shaped questions and many short calls --------------------


def _paths_check(g: Graph, u: str, v: str, max_len: int):
    counts = oracle.walks_by_length(g.out, u, v, max_len)
    n = len(g.vertices)
    # a u -> v walk of length in [n, 3n] exists iff a cycle lies on a route
    infinite = any(oracle.walks_by_length(g.out, u, v, 3 * n)[n:])
    tail = ("infinitely many in total" if infinite else
            f"{sum(oracle.walks_by_length(g.out, u, v, n))} in total")
    head = (f"truncated at length {max_len}; " if infinite else "complete; ")
    want_last = f"count: {sum(counts)} ({head}{tail})"
    edge = {e: (s, t) for e, s, t in g.edges}

    def check(out: str):
        lines = out.splitlines()
        if lines[-1:] != [want_last]:
            return f"want {want_last!r}, got {lines[-1:]}"
        body = lines[:-1]
        if len(set(body)) != len(body) or len(body) != sum(counts):
            return "paths are repeated or missing"
        for line in body:
            at, steps = u, [] if line == "(empty)" else line.split("·")
            for e in steps:
                if e not in edge or edge[e][0] != at:
                    return f"{line!r} is not a path from {u}"
                at = edge[e][1]
            if at != v or len(steps) > max_len:
                return f"{line!r} does not end at {v} within {max_len}"
        return None
    return check


def _cycles_check(g: Graph, max_len: int):
    want = sum(oracle.primitive_cycles(g.out, n) for n in range(1, max_len + 1))
    edge = {e: (s, t) for e, s, t in g.edges}

    def check(out: str):
        lines = out.splitlines()
        consts = [f"constant at {v}" for v in g.vertices]
        if lines[:len(consts)] != consts:
            return "constant cycles missing"
        seen = set()
        for line in lines[len(consts):]:
            word = tuple(line.split("·"))
            if not all(w in edge for w in word) or any(
                    edge[a][1] != edge[b][0] for a, b in zip(word, word[1:] + word[:1])):
                return f"{line!r} is not a closed walk"
            if len(word) > max_len or not oracle.is_primitive(word):
                return f"{line!r} is too long or not primitive"
            seen.add(oracle.least_rotation(word))
        if len(seen) != len(lines) - len(consts) or len(seen) != want:
            return f"want {want} cycles up to rotation, got {len(seen)}"
        return None
    return check


def _classify_text(g: Graph) -> str:
    ins = {v: 0 for v in g.vertices}
    outs = {v: 0 for v in g.vertices}
    parent = {v: v for v in g.vertices}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x
    for _, s, t in g.edges:
        outs[s] += 1
        ins[t] += 1
        parent[root(s)] = root(t)
    connected = len({root(v) for v in g.vertices}) == 1
    indeg, ready, removed = dict(ins), [v for v in g.vertices if not ins[v]], 0
    while ready:                                   # Kahn: acyclic iff all removed
        x = ready.pop()
        removed += 1
        for y in g.out[x]:
            indeg[y] -= 1
            if not indeg[y]:
                ready.append(y)
    acyclic = removed == len(g.vertices)
    cyc = connected and all(ins[v] == outs[v] == 1 for v in g.vertices)
    lin = connected and acyclic and all(ins[v] <= 1 and outs[v] <= 1
                                        for v in g.vertices)
    yn = {True: "yes", False: "no"}
    return (f"vertices: {len(g.vertices)}  edges: {len(g.edges)}\n"
            f"connected: {yn[connected]}\ncyclically directed: {yn[cyc]}\n"
            f"linearly directed: {yn[lin]}\n"
            + "".join(f"valence {v}: in={ins[v]} out={outs[v]}\n" for v in g.vertices))


def _hom_m_check(count: int):
    def check(out: str):
        lines = out.splitlines()
        if lines[-1:] != [f"count: {count} (truncated)"]:
            return f"want {count} maps (truncated), got {lines[-1:]}"
        return _listing_tail(lines, count)
    return check


def _random_para(rng: random.Random, m: int | None = None):
    m = m or rng.randint(1, 5)
    n = rng.randint(1, 5)
    g0 = rng.randint(-n, 2 * n)
    return m, n, [g0] + sorted(rng.randint(g0, g0 + n) for _ in range(m - 1))


def _random_epi(rng: random.Random, m: int | None = None):
    m = m or rng.randint(1, 5)
    n = rng.randint(1, 5)
    winding = rng.randint(1, 3) * n
    cuts = sorted(rng.randint(0, winding) for _ in range(m - 1))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [winding])]
    vmap, at = [], rng.randrange(n)
    for length in lengths:
        vmap.append(at % n)
        at += length
    return m, n, vmap, lengths


def _para_job(rng: random.Random) -> Job:
    m, n, vals = f = _random_para(rng)
    text = oracle.format_para(*f)
    if rng.random() < 1 / 3:
        _, p, gv = g = _random_para(rng, n)
        comp = [oracle.para_value(n, p, gv, v) for v in vals]
        return Job("para compose", ["para", text, oracle.format_para(*g)],
                   _exact(f"composite: {oracle.format_para(m, p, comp)}\n"))
    r = rng.choice((1, 2, 3))
    want = f"morphism: {text}\ndual: {oracle.format_para(n, m, oracle.para_dual(*f))}\n"
    if r != 1:
        want += f"inflation by {r}: {oracle.format_para(*oracle.para_inflate(r, *f))}\n"
    want += f"projection: {oracle.format_epi(oracle.para_project(*f))}\n"
    return Job("para", ["para", text, "--r", str(r)], _exact(want))


def _epi_job(rng: random.Random) -> Job:
    f = _random_epi(rng)
    if rng.random() < 1 / 3:
        g = _random_epi(rng, f[1])
        h = oracle.epi_compose(g, f)
        return Job("epi compose", ["epi", oracle.format_epi(f), oracle.format_epi(g)],
                   _exact(f"composite: {oracle.format_epi(h)}\n"
                          f"degree: {oracle.epi_degree(h)}\n"))
    cover, winding = oracle.epi_cover_factor(f)
    return Job("epi", ["epi", oracle.format_epi(f)],
               _exact(f"morphism: {oracle.format_epi(f)}\n"
                      f"degree: {oracle.epi_degree(f)}\n"
                      f"cover: {oracle.format_epi(cover)}\n"
                      f"winding part: {oracle.format_epi(winding)}\n"))


def _walks(rng: random.Random, write) -> list[Job]:
    jobs = []
    for k in (1, 2, 3):
        b = bouquet(rng, k)
        path, v = write(b.to_json()), b.vertices[0]
        jobs.append(Job(f"paths bouquet({k})",
                        ["paths", "--graph", path, v, v, "--max-len", "8"],
                        _paths_check(b, v, v, 8)))
        jobs.append(Job(f"cycles bouquet({k})",
                        ["cycles", "--graph", path, "--max-len", "8"],
                        _cycles_check(b, 8)))
    # linear(3000) exceeds the recursion limit of the path search; the job
    # stays so that the defect shows in the failure count until it is fixed
    for p in (50, 200, 800, 3000):
        g = linear(rng, p)
        path, u, v = write(g.to_json()), g.vertices[0], g.vertices[-1]
        jobs.append(Job(f"paths linear({p})",
                        ["paths", "--graph", path, u, v, "--max-len", str(p)],
                        _paths_check(g, u, v, p)))
        if p != 3000:
            jobs.append(Job(f"classify linear({p})", ["classify", "--graph", path],
                            _exact(_classify_text(g))))

    b2 = bouquet(rng, 2)
    src = write(mobject(0, [b2]))
    # circle target: one vertex map, or a primitive cycle (length <= 8) at
    # weight 1..3
    n_cycles = sum(oracle.primitive_cycles(b2.out, n) for n in range(1, 9))
    jobs.append(Job("hom-m bouquet(2) circle",
                    ["hom-m", src, write(mobject(1, [])), "--max-len", "8"],
                    _hom_m_check(len(b2.vertices) + 3 * n_cycles)))
    # linear(2) target: every edge picks a closed walk of length <= 4
    line2 = linear(rng, 2)
    v = b2.vertices[0]
    loops = sum(oracle.walks_by_length(b2.out, v, v, 4))
    jobs.append(Job("hom-m bouquet(2) linear(2)",
                    ["hom-m", src, write(mobject(0, [line2])), "--path-cap", "4"],
                    _hom_m_check(loops ** len(line2.edges))))

    jobs.extend(_para_job(rng) for _ in range(300))
    jobs.extend(_epi_job(rng) for _ in range(300))
    return jobs
