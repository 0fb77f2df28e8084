"""Expected answers from closed forms and brute-force definitions.

Nothing here imports quivercalc: every number the benchmark checks the CLI
against is computed from the generated input data alone.
"""
from __future__ import annotations

import itertools


# --- integers -------------------------------------------------------------


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n (= conjugacy classes of S_n)."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def mobius(n: int) -> int:
    out, x, p = 1, n, 2
    while p * p <= x:
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            out = -out
        p += 1
    return -out if x > 1 else out


# --- permutations ---------------------------------------------------------


def perm_compose(g: tuple, f: tuple) -> tuple:
    """g∘f: first f, then g."""
    return tuple(g[i] for i in f)


def perm_power(p: tuple, r: int) -> tuple:
    """p^r by repeated squaring."""
    out, base = tuple(range(len(p))), p
    while r:
        if r & 1:
            out = perm_compose(base, out)
        base = perm_compose(base, base)
        r >>= 1
    return out


def cycle_type(p: tuple) -> tuple:
    seen, lengths = set(), []
    for start in range(len(p)):
        if start in seen:
            continue
        n, x = 0, start
        while x not in seen:
            seen.add(x)
            x = p[x]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths))


# --- matrices of hom-set sizes --------------------------------------------


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_pow(h, k: int):
    out = [[int(i == j) for j in range(len(h))] for i in range(len(h))]
    for _ in range(k):
        out = mat_mul(out, h)
    return out


def trace(m) -> int:
    return sum(m[i][i] for i in range(len(m)))


def total(m) -> int:
    return sum(map(sum, m))


def h_colourings(h, n_vertices: int, edges) -> int:
    """Σ over object labellings of the vertices of Π over edges of the weight
    matrix entry: edges are (src index, tgt index, weight matrix)."""
    count = 0
    for lab in itertools.product(range(len(h)), repeat=n_vertices):
        term = 1
        for s, t, w in edges:
            term *= w[lab[s]][lab[t]]
            if not term:
                break
        count += term
    return count


# --- walks in a graph -----------------------------------------------------


def walks_by_length(out_adj: dict, u, v, max_len: int) -> list[int]:
    """(e_u A^l e_v) for l = 0..max_len, propagating a sparse row vector."""
    row = {u: 1}
    counts = []
    for _ in range(max_len + 1):
        counts.append(row.get(v, 0))
        nxt: dict = {}
        for x, c in row.items():
            for y in out_adj[x]:
                nxt[y] = nxt.get(y, 0) + c
        row = nxt
        if not row:
            counts.extend([0] * (max_len + 1 - len(counts)))
            break
    return counts


def closed_walks(out_adj: dict, length: int) -> int:
    """tr(A^length)."""
    return sum(walks_by_length(out_adj, x, x, length)[length] for x in out_adj)


def primitive_cycles(out_adj: dict, n: int) -> int:
    """Primitive closed walks of length n up to rotation (a necklace sum):
    (1/n) Σ_{d|n} μ(d) tr(A^(n/d))."""
    s = sum(mobius(d) * closed_walks(out_adj, n // d)
            for d in range(1, n + 1) if n % d == 0)
    assert s % n == 0
    return s // n


def least_rotation(word: tuple) -> tuple:
    return min(word[i:] + word[:i] for i in range(len(word)))


def is_primitive(word: tuple) -> bool:
    n = len(word)
    return all(word[d:] + word[:d] != word for d in range(1, n) if n % d == 0)


# --- paracyclic and epicyclic morphisms -----------------------------------


def para_value(m: int, n: int, vals, i: int) -> int:
    """g(i) for the equivariant extension g(i + m) = g(i) + n."""
    q, r = divmod(i, m)
    return vals[r] + q * n


def para_dual(m: int, n: int, vals) -> list[int]:
    """j ↦ max{ i : g(i) <= j } for j in 0..n-1."""
    out = []
    for j in range(n):
        # g(i0) <= j < g(i0 + m), so the answer lies in [i0, i0 + m)
        i0 = m * ((j - vals[0]) // n)
        out.append(max(i for i in range(i0, i0 + m)
                       if para_value(m, n, vals, i) <= j))
    return out


def para_inflate(r: int, m: int, n: int, vals) -> tuple[int, int, list[int]]:
    return r * m, r * n, [para_value(m, n, vals, j) for j in range(r * m)]


def para_project(m: int, n: int, vals) -> tuple[int, int, list[int], list[int]]:
    """Vertex map mod n and the winding length of each step."""
    return (m, n, [v % n for v in vals],
            [para_value(m, n, vals, i + 1) - para_value(m, n, vals, i)
             for i in range(m)])


def epi_compose(g, f):
    """g∘f for epicyclic (m, n, vertex_map, lengths): the edge out of v
    crosses f.lengths[v] edges of the middle cycle."""
    fm, fn, fv, fl = f
    gm, gn, gv, gl = g
    assert fn == gm
    return (fm, gn, [gv[x] for x in fv],
            [sum(gl[(fv[v] + j) % fn] for j in range(fl[v])) for v in range(fm)])


def epi_degree(f) -> int:
    return sum(f[3]) // f[1]


def epi_cover_factor(f):
    """f = cover ∘ winding part, with the cover the standard degree-r roll of
    an rn-cycle and the winding part based over f's image of vertex 0."""
    m, n, vmap, lengths = f
    r = epi_degree(f)
    cover = (r * n, n, [j % n for j in range(r * n)], [1] * (r * n))
    partial, wv = 0, []
    for v in range(m):
        wv.append((vmap[0] + partial) % (r * n))
        partial += lengths[v]
    winding = (m, r * n, wv, list(lengths))
    assert epi_compose(cover, winding) == (m, n, list(vmap), list(lengths))
    return cover, winding


def format_para(m: int, n: int, vals) -> str:
    return f"{m} {n} : " + " ".join(map(str, vals))


def format_epi(f) -> str:
    m, n, vmap, lengths = f
    return (f"{m} {n} : " + " ".join(map(str, vmap)) + " | "
            + " ".join(map(str, lengths)))
