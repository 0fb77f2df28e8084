"""The exhaustive directed-cycle search that emm.enumerate_directed_cycles
replaced, kept as an oracle for the tests.

It walks every closed walk from every vertex, keeps the primitive ones that
start with their least edge, and drops the rotations it has already seen.
"""
from quivercalc.emm import DirectedCycle
from search_oracle import walks


def is_primitive(walk):
    """No proper rotation of the walk equals it."""
    return all(walk[d:] + walk[:d] != walk for d in range(1, len(walk)))


def enumerate_directed_cycles(graph, max_len):
    out = [DirectedCycle.constant(graph, v) for v in graph.vertices]
    seen = set()
    cycles = []
    for v in graph.vertices:
        for walk in walks(graph, v, v, max_len):
            if (walk and min(walk, key=graph.edge_index) == walk[0]
                    and is_primitive(walk)):
                z = DirectedCycle.walk(graph, walk)
                if z.edges not in seen:
                    seen.add(z.edges)
                    cycles.append(z)
    cycles.sort(key=lambda z: (z.length,
                               tuple(graph.edge_index(e) for e in z.edges)))
    return out + cycles
