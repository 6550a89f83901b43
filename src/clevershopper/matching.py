"""Maximum-weight matching in general graphs.

Primal-dual blossom algorithm, run on one connected component at a time.
A union-find pass over the edges finds the components, and isolated
vertices cost nothing beyond that pass.  A one-edge component is answered
in that pass too: its edge is matched iff its weight is non-negative, as
the blossom algorithm would match it.  Within a component of V vertices
and E edges the algorithm takes O(V^2 (V + E)), and blossoms nest at most
V deep, so the recursion in ``expand_blossom`` and ``augment_blossom`` is
bounded by the component's size, not by the whole graph's.

The implementation follows the classic stage structure: each stage grows
alternating trees from the unmatched vertices, shrinking odd cycles into
blossoms, until it either finds an augmenting path or proves that none
exists under the current dual variables, in which case the duals are
adjusted by the least slack.  Each dual step finds that slack with one
O(V + E) scan over the component's edges.  Least-slack edge lists per
vertex and blossom would bound a step by O(V) on dense graphs, but the
package's one caller, ``build_discount_graph``, emits at most 2 edges per
shop, so its graphs have E < 2V and the scan costs no more.
Edge slacks are computed as dual[i] + dual[j] - 2*weight so that all dual
arithmetic stays integral for integer edge weights.

Maximum weight is over all matchings, not just maximum-cardinality ones:
a vertex stays unmatched whenever that is at least as good.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InputError

NO_NODE = -1


@dataclass(frozen=True)
class WeightedEdge:
    u: int
    v: int
    weight: int
    tag: int | None = None


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on vertices 0..num_vertices-1.

    At most one edge per vertex pair and no self-loops; ``tag`` is opaque
    payload (solvers use it to remember which shop an edge came from).
    """

    num_vertices: int
    edges: tuple[WeightedEdge, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if e.u == e.v:
                raise InputError(f"self-loop at vertex {e.u}")
            if not (0 <= e.u < self.num_vertices and 0 <= e.v < self.num_vertices):
                raise InputError(f"edge ({e.u}, {e.v}) out of range")
            key = (min(e.u, e.v), max(e.u, e.v))
            if key in seen:
                raise InputError(f"duplicate edge {key}")
            seen.add(key)


def max_weight_matching(graph: WeightedGraph) -> frozenset[tuple[int, int]]:
    """Matching of maximum total weight, as a set of (u, v) pairs with u < v.
    The graph rejected self-loops and repeated pairs when it was built."""
    # Union-find over the edges.  A matching is the union of matchings of
    # the connected components, so each component with an edge is solved
    # alone, its vertices relabelled 0..k-1 in increasing id order.
    parent = list(range(graph.num_vertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for e in graph.edges:
        parent[find(e.u)] = find(e.v)
    components: dict[int, list[WeightedEdge]] = {}
    for e in graph.edges:
        components.setdefault(find(e.u), []).append(e)

    pairs: set[tuple[int, int]] = set()
    for members in components.values():
        if len(members) == 1:
            # Vertex duals start at max(0, w), so the blossom would match
            # the one edge iff it is tight, that is iff w >= 0.
            (e,) = members
            if e.weight >= 0:
                pairs.add((e.u, e.v) if e.u < e.v else (e.v, e.u))
            continue
        ids = sorted({x for e in members for x in (e.u, e.v)})
        local = {v: i for i, v in enumerate(ids)}
        edges = [(local[e.u], local[e.v], e.weight) for e in members]
        pairs.update((ids[i], ids[j]) for i, j in _match_component(len(ids), edges))
    return frozenset(pairs)


def _match_component(
    nvertex: int, edges: list[tuple[int, int, int]]
) -> frozenset[tuple[int, int]]:
    """Maximum-weight matching of a graph on vertices 0..nvertex-1 with at
    least one edge, as (i, j) pairs with i < j."""
    nedge = len(edges)
    maxweight = max(max(0, wt) for (_, _, wt) in edges)

    # Endpoint p of edge k=p//2 is vertex edges[k][p%2]; neighbend[v] lists
    # the remote endpoints of edges incident to v.
    endpoint = [edges[p // 2][p % 2] for p in range(2 * nedge)]
    neighbend: list[list[int]] = [[] for _ in range(nvertex)]
    for k, (i, j, _) in enumerate(edges):
        neighbend[i].append(2 * k + 1)
        neighbend[j].append(2 * k)

    # mate[v] is the remote endpoint of v's matched edge, or -1.
    mate = nvertex * [-1]

    # Labels live on vertices and on top-level blossoms: 0 free, 1 S, 2 T
    # (bit 4 marks scan breadcrumbs).  labelend[b] is the endpoint through
    # which b obtained its label.
    label = (2 * nvertex) * [0]
    labelend = (2 * nvertex) * [-1]

    # inblossom[v] is the top-level blossom containing vertex v.  Blossom
    # ids nvertex..2*nvertex-1 are allocated from unusedblossoms.
    inblossom = list(range(nvertex))
    blossomparent = (2 * nvertex) * [-1]
    blossomchilds: list[list[int] | None] = (2 * nvertex) * [None]
    blossombase = list(range(nvertex)) + nvertex * [-1]
    blossomendps: list[list[int] | None] = (2 * nvertex) * [None]
    unusedblossoms = list(range(nvertex, 2 * nvertex))

    # Duals are pre-multiplied by two relative to the LP formulation, which
    # keeps every slack integral.  Vertex duals start at maxweight, blossom
    # duals at zero.
    dualvar = nvertex * [maxweight] + nvertex * [0]

    allowedge = nedge * [False]
    queue: list[int] = []

    def slack(k: int) -> int:
        (i, j, wt) = edges[k]
        return dualvar[i] + dualvar[j] - 2 * wt

    def blossom_leaves(b: int) -> Iterator[int]:
        if b < nvertex:  # most calls; no stack to build
            yield b
            return
        # Depth first, children in order, on an explicit stack: blossoms
        # can nest about as deep as there are vertices.
        stack = [b]
        while stack:
            t = stack.pop()
            if t < nvertex:
                yield t
            else:
                childs = blossomchilds[t]
                assert childs is not None
                stack.extend(reversed(childs))

    def assign_label(w: int, t: int, p: int) -> None:
        b = inblossom[w]
        assert label[w] == 0 and label[b] == 0
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        if t == 1:
            # S-vertex/blossom: all its vertices become scan sources.
            queue.extend(blossom_leaves(b))
        else:
            # T-blossom: its base's mate becomes an S-vertex.
            base = blossombase[b]
            assert mate[base] >= 0
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from two S-vertices; return a common base or -1
        if the paths reach two distinct roots (an augmenting path)."""
        path = []
        base = NO_NODE
        while v != NO_NODE or w != NO_NODE:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            assert labelend[b] == mate[blossombase[b]]
            if labelend[b] == -1:
                v = NO_NODE  # reached a root
            else:
                v = endpoint[labelend[b]]
                b = inblossom[v]
                assert label[b] == 2
                assert labelend[b] >= 0
                v = endpoint[labelend[b]]
            if w != NO_NODE:
                v, w = w, v
        for b in path:
            label[b] = 1  # remove breadcrumbs
        return base

    def add_blossom(base: int, k: int) -> None:
        """Shrink the odd cycle through edge k and the base into a new
        S-blossom."""
        (v, w, _) = edges[k]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path: list[int] = []
        endps: list[int] = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            assert labelend[bv] >= 0
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            assert labelend[bw] >= 0
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        assert label[bb] == 1
        blossomchilds[b] = path
        blossomendps[b] = endps
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                # Former T-vertices become S-vertices; scan them.
                queue.append(leaf)
            inblossom[leaf] = b

    def expand_blossom(b: int, endstage: bool) -> None:
        """Undo the shrinking of blossom b (at stage end, or when its dual
        hits zero mid-stage while labelled T)."""
        childs = blossomchilds[b]
        assert childs is not None
        for s in childs:
            blossomparent[s] = -1
            if s < nvertex:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                expand_blossom(s, endstage)
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        if (not endstage) and label[b] == 2:
            # The expanding blossom was T-labelled; relabel the even-length
            # path of sub-blossoms from the entry child to the base, and
            # leave the rest free for later scans.
            assert labelend[b] >= 0
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = childs.index(entrychild)
            if j & 1:
                j -= len(childs)
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                endps = blossomendps[b]
                assert endps is not None
                label[endpoint[endps[j - endptrick] ^ endptrick ^ 1]] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[endps[j - endptrick] // 2] = True
                j += jstep
                p = endps[j - endptrick] ^ endptrick
                allowedge[p // 2] = True
                j += jstep
            # The base sub-blossom keeps the T label without recursing to
            # its mate (which is still matched to it).
            bv = childs[j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            j += jstep
            while childs[j] != entrychild:
                bv = childs[j]
                if label[bv] == 1:
                    j += jstep
                    continue
                for leaf in blossom_leaves(bv):
                    if label[leaf] != 0:
                        break
                if label[leaf] != 0:
                    assert label[leaf] == 2
                    assert inblossom[leaf] == bv
                    label[leaf] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(leaf, 2, labelend[leaf])
                j += jstep
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        """Rotate blossom b so that vertex v becomes its base, flipping
        matched and unmatched edges along the way."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= nvertex:
            augment_blossom(t, v)
        childs = blossomchilds[b]
        endps = blossomendps[b]
        assert childs is not None and endps is not None
        i = j = childs.index(t)
        if i & 1:
            j -= len(childs)
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = childs[j]
            p = endps[j - endptrick] ^ endptrick
            if t >= nvertex:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = childs[j]
            if t >= nvertex:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = childs[i:] + childs[:i]
        blossomendps[b] = endps[i:] + endps[:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]  # type: ignore[index]
        assert blossombase[b] == v

    def augment_matching(k: int) -> None:
        """Swap matched/unmatched edges along the augmenting path through
        edge k."""
        (v, w, _) = edges[k]
        for (s, p) in ((v, 2 * k + 1), (w, 2 * k)):
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                assert labelend[bs] == mate[blossombase[bs]]
                if bs >= nvertex:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break  # reached a root
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                assert label[bt] == 2
                assert labelend[bt] >= 0
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                assert blossombase[bt] == t
                if bt >= nvertex:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    for _ in range(nvertex):
        # Stage: grow alternating trees from all unmatched vertices until
        # an augmenting path is found or the duals prove optimality.
        label[:] = (2 * nvertex) * [0]
        allowedge[:] = nedge * [False]
        queue[:] = []

        for v in range(nvertex):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)

        augmented = 0
        while 1:
            while queue and not augmented:
                v = queue.pop()
                assert label[inblossom[v]] == 1
                for p in neighbend[v]:
                    k = p // 2
                    w = endpoint[p]
                    if inblossom[v] == inblossom[w]:
                        continue  # intra-blossom edge
                    if not allowedge[k] and slack(k) <= 0:
                        allowedge[k] = True
                    if allowedge[k]:
                        if label[inblossom[w]] == 0:
                            assign_label(w, 2, p ^ 1)
                        elif label[inblossom[w]] == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                            else:
                                augment_matching(k)
                                augmented = 1
                                break
                        elif label[w] == 0:
                            # w sits unreached inside a T-blossom; remember
                            # how it was reached for a later expansion.
                            assert label[inblossom[w]] == 2
                            label[w] = 2
                            labelend[w] = p ^ 1

            if augmented:
                break

            # No augmenting path under the current duals; compute the
            # least slack and adjust.  One scan over the edges finds delta2
            # (S to free) and delta3 (S to another S, half the slack).
            deltatype = 1
            delta = max(0, min(dualvar[:nvertex]))
            deltaedge = -1
            deltablossom = -1

            for k, (i, j, wt) in enumerate(edges):
                bi = inblossom[i]
                bj = inblossom[j]
                if label[bi] != 1:
                    bi, bj = bj, bi
                if label[bi] != 1 or bi == bj or label[bj] == 2:
                    continue
                d = dualvar[i] + dualvar[j] - 2 * wt
                if label[bj] == 1:
                    assert d % 2 == 0
                    d //= 2
                if d < delta:
                    delta = d
                    deltatype = 3 if label[bj] == 1 else 2
                    deltaedge = k

            for b in range(nvertex, 2 * nvertex):
                if (
                    blossombase[b] >= 0
                    and blossomparent[b] == -1
                    and label[b] == 2
                    and dualvar[b] < delta
                ):
                    delta = dualvar[b]
                    deltatype = 4
                    deltablossom = b

            for v in range(nvertex):
                if label[inblossom[v]] == 1:
                    dualvar[v] -= delta
                elif label[inblossom[v]] == 2:
                    dualvar[v] += delta
            for b in range(nvertex, 2 * nvertex):
                if blossombase[b] >= 0 and blossomparent[b] == -1:
                    if label[b] == 1:
                        dualvar[b] += delta
                    elif label[b] == 2:
                        dualvar[b] -= delta

            if deltatype == 1:
                break  # optimum reached
            elif deltatype == 2:
                allowedge[deltaedge] = True
                (i, j, _) = edges[deltaedge]
                if label[inblossom[i]] == 0:
                    i, j = j, i
                assert label[inblossom[i]] == 1
                queue.append(i)
            elif deltatype == 3:
                allowedge[deltaedge] = True
                (i, j, _) = edges[deltaedge]
                assert label[inblossom[i]] == 1
                queue.append(i)
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break

        # Stage end: expand S-blossoms whose dual dropped to zero.
        for b in range(nvertex, 2 * nvertex):
            if (
                blossomparent[b] == -1
                and blossombase[b] >= 0
                and label[b] == 1
                and dualvar[b] == 0
            ):
                expand_blossom(b, True)

    # The recursive closures reach themselves through their cells, a cycle
    # that would hold this component's lists until the collector runs.
    del blossom_leaves, assign_label, expand_blossom, augment_blossom

    pairs: set[tuple[int, int]] = set()
    for v in range(nvertex):
        if mate[v] >= 0:
            w = endpoint[mate[v]]
            if v < w:
                pairs.add((v, w))
    return frozenset(pairs)
