"""The per-element string implementations that the index-tuple code in
fincat and emm replaced, kept as oracles for the tests.

Every element here is a Representation or a trace class, built and checked
again once per element; nothing reads the compiled IntTable.  The tests
compare the library's results with these, verdicts, sizes, notes and
witness strings included.
"""
import itertools

from quivercalc.digraph import QuivercalcError
from quivercalc.emm import (CircleEndo, ExcisionVerdict, VertexToCircle,
                            quiv_op_mmor)
from quivercalc.fincat import Representation, SheafVerdict, enumerate_reps
from quivercalc.hochschild import CyclicWord, compute_hh, psi
from union_find import UnionFind


def compose_along_path(rep, path):
    c = rep.category
    out = c.identity(rep.vertex_labels[path.start])
    for eid in path.edges:
        out = c.comp(rep.edge_labels[eid], out)
    return out


def pullback_rep(qmor, rep):
    if rep.graph != qmor.target:
        raise QuivercalcError("representation lives on a different graph")
    vlab = {v: rep.vertex_labels[qmor.vertex_map[v]]
            for v in qmor.source.vertices}
    elab = {e.eid: compose_along_path(rep, qmor.edge_paths[e.eid])
            for e in qmor.source.edges}
    return Representation(rep.category, qmor.source, vlab, elab)


def fact_homology(category, m):
    classes = compute_hh(category).classes
    slots = [classes] * m.circles + \
            [enumerate_reps(category, q) for q in m.quivers]
    return [(tuple(combo[:m.circles]), tuple(combo[m.circles:]))
            for combo in itertools.product(*slots)]


def fact_map(category, f):
    table = compute_hh(category)

    def apply(elem):
        classes, reps = elem
        if len(classes) != f.source.circles or len(reps) != len(f.source.quivers):
            raise QuivercalcError("the element does not belong to the "
                                  "source's invariant")
        new_classes = []
        for part in f.circle_parts:
            if isinstance(part, CircleEndo):
                new_classes.append(psi(category, part.weight,
                                       classes[part.circle]))
            elif isinstance(part, VertexToCircle):
                label = reps[part.quiver].vertex_labels[part.vertex]
                new_classes.append(table.class_of(category.identity(label)))
            else:
                rep = reps[part.quiver]
                word = CyclicWord(category,
                                  [rep.edge_labels[e] for e in part.cycle.edges])
                new_classes.append(psi(category, part.weight, word))
        new_reps = [pullback_rep(part.mor, reps[part.quiver])
                    for part in f.quiver_parts]
        return (tuple(new_classes), tuple(new_reps))

    return apply


def verify_excision(category, site):
    fa, fb = site.face_maps()
    x0 = fact_homology(category, site.level(0))
    x1 = fact_homology(category, site.level(1))
    map_a = fact_map(category, quiv_op_mmor(fa))
    map_b = fact_map(category, quiv_op_mmor(fb))

    index = {elem: i for i, elem in enumerate(x0)}
    uf = UnionFind(range(len(x0)))
    for y in x1:
        uf.union(index[map_a(y)], index[map_b(y)])
    coeq = uf.classes()

    glue = fact_map(category, site.glue_mmor())
    direct = fact_homology(category, site.total())
    direct_index = {elem: i for i, elem in enumerate(direct)}

    note = ""
    ok = True
    glued_of_root = {}
    for i, elem in enumerate(x0):
        g = glue(elem)
        if g not in direct_index:
            ok, note = False, "gluing left the invariant of the glued object"
            break
        root = uf.find(i)
        if root in glued_of_root and glued_of_root[root] != direct_index[g]:
            ok, note = False, "gluing does not coequalize the two stage maps"
            break
        glued_of_root[root] = direct_index[g]
    if ok:
        image = set(glued_of_root.values())
        if len(image) != len(coeq):
            ok, note = False, "induced map from the coequalizer is not injective"
        elif len(image) != len(direct):
            ok, note = False, "induced map from the coequalizer is not surjective"
    return ExcisionVerdict(ok, len(x0), len(x1), len(coeq), len(direct), note)


def check_closed_sheaf(category, cover):
    whole = enumerate_reps(category, cover.ambient)
    left = enumerate_reps(category, cover.left)
    right = enumerate_reps(category, cover.right)
    inter = enumerate_reps(category, cover.intersection)

    fiber = set()
    for a in left:
        for b in right:
            if a.restrict(cover.intersection) == b.restrict(cover.intersection):
                fiber.add((a.key(), b.key()))

    image = set()
    witness = None
    for r in whole:
        pair = (r.restrict(cover.left).key(), r.restrict(cover.right).key())
        if pair in image:
            witness = f"restriction not injective at {r!r}"
        image.add(pair)

    ok = witness is None and image == fiber
    if not ok and witness is None:
        extra = fiber - image
        missing = image - fiber
        if extra:
            witness = f"unglued compatible pair: {sorted(extra)[0]}"
        else:
            witness = f"image escapes the fiber product: {sorted(missing)[0]}"
    return SheafVerdict(ok, len(whole), len(left), len(right), len(inter),
                        len(fiber), witness)
