"""The exhaustive directed-cycle search that emm.enumerate_directed_cycles
replaced, and the cycle rule that compose_m used before quiver.cycle_root,
kept as oracles for the tests.

The search walks every closed walk from every vertex, keeps the primitive
ones, and stores each in the least of its rotations, found by comparing all
of them; it drops the rotations it has already seen.  It calls neither
quiver.directed_cycle nor digraph.lyndon_rotation.  The compose rule reads
the period from lyndon_rotation, as compose_m did.
"""
from quivercalc.digraph import lyndon_rotation
from quivercalc.emm import CycleToCircle
from quivercalc.quiver import Path
from search_oracle import walks


def is_primitive(walk):
    """No proper rotation of the walk equals it."""
    return all(walk[d:] + walk[:d] != walk for d in range(1, len(walk)))


def least_rotation(graph, walk):
    """The rotation of walk whose edge indices are least, by trying each."""
    return min((walk[d:] + walk[:d] for d in range(len(walk))),
               key=lambda w: [graph.edge_index(e) for e in w])


def enumerate_directed_cycles(graph, max_len):
    out = [Path(graph, v, ()) for v in graph.vertices]
    seen = set()
    cycles = []
    for v in graph.vertices:
        for walk in walks(graph, v, v, max_len):
            if walk and is_primitive(walk):
                edges = least_rotation(graph, walk)
                if edges not in seen:
                    seen.add(edges)
                    cycles.append(Path(graph, graph.edge(edges[0]).src, edges))
    cycles.sort(key=lambda z: (z.length,
                               tuple(graph.edge_index(e) for e in z.edges)))
    return out + cycles


def compose_cycle(part, qp):
    """compose_m's image of the cycle part `part` through the quiver part
    `qp`, by its rule before cycle_root: the image's period p from
    lyndon_rotation, the first p edges rotated least by brute force, and
    the weight times len // p; a collapsed cycle is its vertex, once."""
    q = qp.mor.target
    image = qp.mor.map_path(part.cycle)
    if not image.edges:
        return CycleToCircle(qp.quiver, image, 1)
    _, p = lyndon_rotation([q.edge_index(e) for e in image.edges])
    edges = least_rotation(q, image.edges[:p])
    return CycleToCircle(qp.quiver, Path(q, q.edge(edges[0]).src, edges),
                         part.weight * len(image.edges) // p)
