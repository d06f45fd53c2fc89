"""Tensor reflections, reflection closure, and Cartan-graph axioms.

A reflection at index l sends alpha_j to alpha_j - c_{l,j} alpha_l and
acts on a degree-d tensor through the d-th tensor power; on
sqrt-exponents the action is linear, so the closure of a tensor under
all reflections is computed exactly.  Objects are deduplicated by exact
equality of sqrt-exponent tensors, inside the closure only; everywhere
else an object is its position, numbered in discovery order from the
start object 0.  That number is the CLI's "object N", the index of the
edge table and the key of `real_roots`.

On the basis that reflection is A = I - c e_l^T, c the Cartan row at
l, and A factors as D B: D negates the l-th coordinate and
B = I - c' e_l^T, c' being c with its l-th entry zeroed.  D on one axis
commutes with B on every other axis, so A^(x d) = D^(x d) B^(x d).
`reflect` applies B one tensor axis at a time and D^(x d), which only
multiplies each entry by (-1) to the number of l in its index, once at
the end.

B runs on one packed integer, and its slots never borrow or carry.  The
entries, reduced to 0..M-1, sit in fixed-width slots, entry p in bits
[p*w, (p+1)*w).  Off the diagonal a Cartan row has c_i <= 0, so on one
axis B only adds nonnegative multiples, x_i += |c_i| x_l, and nothing
is ever subtracted: no slot borrows.  Each axis multiplies the largest
entry by at most 1 + g, g = max_{i != l} |c_i|, so after d axes every
slot holds at most (M-1)(1+g)**d; the all-(M-1) tensor reaches that
bound at the indices that avoid l.  w is that bound's bit length,
rounded up to whole 64-bit words, so no slot outgrows its bits and none
carries into the next.  Slots wider than one word (M >= 2**64, or a
large |c|) are exact in the same way; only the one-word case packs and
unpacks through `struct`.

Each edge is reflected once where it can be.  With the row c fixed,
sigma_l is an involution of Z^n, so its d-th tensor power is one on
integer sqrt-exponents, and reduction mod M commutes with that integer
linear map: reflect(reflect(t, l, c), l, c) == t.  So when p reflects
to q at l and q's Cartan row l equals p's, the edge from q at l leads
back to p without a second reflection.  Where the rows differ (a C2
failure, possible from degree 4 on) q is reflected with its own row, so
C1 and C2 are checked on edges that were computed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    AxiomViolation,
    InvalidArguments,
    ObjectLimitExceeded,
    OddDegreeError,
    Report,
)
from .lattice import SqrtBraidingTensor, _trusted_tensor, aggregate_profile
from .rosso import DEFAULT_M_MAX, GeneralizedCartanMatrix, cartan_matrix

DEFAULT_MAX_OBJECTS = 100000


def _check_cartan_row(rank, l, row):
    """InvalidArguments unless the tuple `row` is a Cartan row at l:
    `rank` entries, 2 at l and none above 0 elsewhere."""
    if len(row) != rank:
        raise InvalidArguments("Cartan row has wrong length")
    if row[l - 1] != 2:
        raise InvalidArguments("Cartan row must have 2 at the reflecting index")
    # the 2 at l is the one entry above 0 that a Cartan row has
    if len([c for c in row if c > 0]) > 1:
        raise InvalidArguments("off-diagonal Cartan entries must be <= 0")


def reflect(
    tensor: SqrtBraidingTensor, l: int, c_row
) -> SqrtBraidingTensor:
    """Reflected tensor: sqrt-exponents transformed by the tensor power.

    sigma_l acts on the basis by A = I - c e_l^T, c the Cartan row, and
    A = D B with D = diag(1, .., -1 at l, .., 1) and B = I - c' e_l^T,
    where c' is c with its l-th entry zeroed.  On one axis D acts after
    B, and it commutes with the factors on every other axis, so
    A^(x d) = D^(x d) B^(x d) and every sign can wait until the end.

    B^(x d) runs on the entries packed into one integer, one slot of
    `width` bits per flat offset (see the module docstring).  On one
    axis, B adds |c_i| times block l to block i: one mask AND picks the
    slots whose index is l on that axis, and each i with c_i != 0 costs
    one shift, one multiply by |c_i| and one add.  The slots are
    unpacked once, and one pass multiplies each entry by (-1) to the
    number of l in its index, read from a tuple cached per shape
    (D^(x d)), and reduces it mod M.
    """
    if not 1 <= l <= tensor.rank:
        raise InvalidArguments(f"index {l} out of range 1..{tensor.rank}")
    row = tuple(c_row)
    _check_cartan_row(tensor.rank, l, row)
    n, d, M = tensor.rank, tensor.degree, tensor.modulus
    # (blocks from block l to block i, |c_{l,i}|) for each i with c != 0
    gains = [(i - l + 1, -c) for i, c in enumerate(row) if c and i != l - 1]
    flat = tensor.flat()
    if gains:
        width = _slot_width((M - 1) * (1 + max(g for _, g in gains)) ** d)
        packed = _pack(flat, width)
        for mask, block in _axis_masks(n, d, l, width):
            lead = packed & mask
            for offset, gain in gains:
                if offset > 0:
                    moved = lead << offset * block
                else:
                    moved = lead >> -offset * block
                packed += moved if gain == 1 else gain * moved
        flat = _unpack(packed, len(flat), width)
    signs = _index_signs(n, d, l)
    return _trusted_tensor(
        n, d, M, tuple([s * e % M for s, e in zip(signs, flat)])
    )


def _slot_width(top: int) -> int:
    """Bits per slot: the fewest 64-bit words that hold 0..top."""
    return 64 * max(1, -(-top.bit_length() // 64))


@lru_cache(maxsize=64)
def _words(count: int) -> struct.Struct:
    """Little-endian 64-bit words, count of them."""
    return struct.Struct(f"<{count}Q")


def _pack(flat, width: int) -> int:
    """Entries 0 <= e < 2**width, entry p in bits [p*width, (p+1)*width)."""
    if width == 64:
        return int.from_bytes(_words(len(flat)).pack(*flat), "little")
    size = width // 8
    return int.from_bytes(
        b"".join([e.to_bytes(size, "little") for e in flat]), "little"
    )


def _unpack(packed: int, count: int, width: int):
    """The count slot values of a packed integer, in flat order: its
    64-bit words, folded from the top word of each slot down."""
    span = width // 64
    raw = packed.to_bytes(count * width // 8, "little")
    words = _words(count * span).unpack(raw)
    if span == 1:
        return words
    values = words[span - 1::span]
    for j in range(span - 2, -1, -1):
        values = [v << 64 | w for v, w in zip(values, words[j::span])]
    return values


@lru_cache(maxsize=64)
def _axis_masks(n: int, d: int, l: int, width: int) -> tuple:
    """(mask, block bits) per tensor axis of a packed rank-n, degree-d
    tensor: the mask has every bit of the slots whose index on that axis
    is l, and a block (the slots of one index on that axis, between two
    steps of the axes before it) spans n**(d-1-axis) slots."""
    masks = []
    for axis in range(d):
        block = n ** (d - 1 - axis) * width
        period = n * block
        ones = ((1 << block) - 1) << (l - 1) * block
        repeat = ((1 << n ** axis * period) - 1) // ((1 << period) - 1)
        masks.append((ones * repeat, block))
    return tuple(masks)


@lru_cache(maxsize=256)
def _index_signs(n: int, d: int, l: int) -> tuple:
    """(-1) ** (number of coordinates equal to l) at every flat offset
    of a rank-n, degree-d tensor, in row-major order."""
    axis = [-1 if i == l else 1 for i in range(1, n + 1)]
    signs = [1]
    for _ in range(d):
        signs = [s * a for s in signs for a in axis]
    return tuple(signs)


@dataclass(frozen=True)
class CartanGraphObject:
    tensor: SqrtBraidingTensor
    cartan: GeneralizedCartanMatrix


@dataclass
class CartanGraph:
    """Objects in discovery order, the start at 0; edges[p][i - 1] is the
    position of the reflection of object p at index i."""

    rank: int
    objects: list = field(default_factory=list)  # CartanGraphObject
    edges: list = field(default_factory=list)  # one tuple of rank positions

    def object_list(self):
        return list(self.objects)

    def __len__(self):
        return len(self.objects)


def generate_cartan_graph(
    tensor: SqrtBraidingTensor,
    m_max: int = DEFAULT_M_MAX,
    max_objects: int = DEFAULT_MAX_OBJECTS,
    validate: bool = True,
) -> CartanGraph:
    """Breadth-first closure of a tensor under all reflections.

    Deterministic: objects are explored in discovery order and
    reflections in index order.  An edge whose reverse is known and
    whose Cartan row agrees with the reverse's is read from the
    involution, not reflected (see the module docstring); that
    reflection could only return an existing object, so objects, edges
    and errors are those of reflecting every object at every index.

    Raises UndefinedCartanEntry if some object has no Cartan matrix
    within m_max, ObjectLimitExceeded if the closure, start object
    included, grows past max_objects, and InvalidArguments if
    max_objects is negative.

    The Cartan-graph axioms are asserted on the result; a violation
    raises AxiomViolation.  Violations are possible: the vanishing
    condition is preserved across a reflection at m = -c, but for degree
    >= 4 nothing forbids an earlier vanishing on the reflected tensor,
    and some tensors realize that (pass validate=False to inspect such a
    closure anyway).
    """
    if max_objects < 0:
        raise InvalidArguments(f"max_objects must be >= 0, got {max_objects}")
    if tensor.degree % 2 != 0:
        raise OddDegreeError(
            f"groupoid generation needs even degree, got {tensor.degree}"
        )
    graph = CartanGraph(tensor.rank)
    # modulus, rank and degree are those of the start throughout, so
    # equal exponent tuples mean equal tensors
    positions = {}

    def position(t):
        """Position of t, appended as a new object on first sight."""
        pos = positions.setdefault(t.flat(), len(graph.objects))
        if pos == len(graph.objects):
            if pos >= max_objects:
                raise ObjectLimitExceeded(
                    f"closure exceeded {max_objects} objects"
                )
            graph.objects.append(CartanGraphObject(t, cartan_matrix(t, m_max)))
        return pos

    position(tensor)
    back = {}  # (q, i) -> p for an edge p --i--> q already computed
    # the loop also visits the objects appended while it runs
    for p, obj in enumerate(graph.objects):
        targets = []
        for i in range(1, graph.rank + 1):
            row = obj.cartan.row(i)
            q = back.get((p, i))
            if q is None or graph.objects[q].cartan.row(i) != row:
                q = position(reflect(obj.tensor, i, row))
                back[(q, i)] = p
            targets.append(q)
        graph.edges.append(tuple(targets))
    if validate:
        report = validate_axioms(graph)
        if not report.ok:
            raise AxiomViolation(report.failures())
    return graph


def validate_axioms(graph: CartanGraph) -> Report:
    """Itemized check of the Cartan-graph axioms on every edge.

    Per edge, the reflection is an involution (C1) and the reflecting
    row of the Cartan matrix is preserved (C2); a failing check carries
    what went wrong as its note, a passing one has none.  The matrix
    axioms M1/M2 (diagonal 2, off-diagonal <= 0, symmetric zero pattern)
    are not rechecked here: every object's matrix comes from
    cartan_matrix, whose docstring shows that each one it builds satisfies
    them; the GeneralizedCartanMatrix constructor raises InvalidArguments
    on any violation.
    """
    report = Report()
    for pos, targets in enumerate(graph.edges):
        here = graph.objects[pos].cartan
        for i, target in enumerate(targets, start=1):
            c1 = graph.edges[target][i - 1] == pos
            report.record(
                f"C1 object {pos} index {i}",
                c1,
                "" if c1 else "reflection is not an involution",
            )
            c2 = graph.objects[target].cartan.row(i) == here.row(i)
            report.record(
                f"C2 object {pos} index {i}",
                c2,
                "" if c2 else "Cartan row changed across the edge",
            )
    return report


@dataclass(frozen=True)
class DynkinDiagram:
    """Vertex labels are mu-exponents of diagonal values, edges carry the
    mu-exponent of the mixed product; edges only where that is nonzero."""

    modulus: int
    vertex_labels: tuple
    edges: tuple  # ((i, j, exponent), ...) with 1-based i < j


def dynkin_diagram(tensor: SqrtBraidingTensor) -> DynkinDiagram:
    if tensor.degree != 2:
        raise InvalidArguments("Dynkin diagrams are defined for degree 2 only")
    M = tensor.modulus
    n = tensor.rank
    vertices = tuple(2 * tensor.entry((i, i)) % M for i in range(1, n + 1))
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            e = 2 * aggregate_profile(tensor, i, j)[1] % M
            if e != 0:
                edges.append((i, j, e))
    return DynkinDiagram(M, vertices, tuple(edges))
