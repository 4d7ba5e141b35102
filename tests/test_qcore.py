"""Tests for labeled spaces, states, density matrices, and factor algebra."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import onticsim
from onticsim import (
    DensityMatrix,
    HilbertSpace,
    PureState,
    basis_state,
    matrix_from_json,
    matrix_to_json,
    maximally_mixed,
    partial_trace,
    permute_factors,
    space_from_json,
    space_to_json,
    tensor,
    trace_distance,
)
from onticsim import tolerances as tol
from onticsim.errors import (
    BadPartition,
    LabelClash,
    NothingToTrace,
    SpaceMismatch,
    ToleranceBreach,
    UnknownSubsystem,
)
from onticsim.qcore import _canonical_phase, _csv_text

SEED = 20260816
SRC = Path(onticsim.__file__).parent


def random_density(rng: np.random.Generator, space: HilbertSpace) -> DensityMatrix:
    d = space.total_dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conjugate().T
    return DensityMatrix(space, m / np.trace(m))


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

def test_space_bookkeeping():
    space = HilbertSpace.of(("s", 2), ("e", 3))
    assert space.labels == ("s", "e")
    assert space.dims == (2, 3)
    assert space.total_dim == 6
    assert space.axis("e") == 1
    assert space.dim_of("s") == 2


def test_space_rejects_label_clash():
    with pytest.raises(LabelClash):
        HilbertSpace.of(("s", 2), ("s", 2))


@pytest.mark.parametrize("dim", [2.5, 2.7, 0, -1, 0.5, np.nan, np.inf, -np.inf, None])
def test_space_rejects_dimensions_that_are_not_positive_integers(dim):
    with pytest.raises(BadPartition):
        HilbertSpace.of(("s", dim))
    with pytest.raises(BadPartition):
        space_from_json([{"label": "e", "dim": 2}, {"label": "s", "dim": dim}])


def test_space_accepts_integral_dimensions_of_any_numeric_type():
    assert HilbertSpace.of(("s", 2.0), ("e", np.int64(3))).dims == (2, 3)


def test_space_subspace_and_unknown_label():
    space = HilbertSpace.of(("a", 2), ("b", 3), ("c", 2))
    assert space.subspace(["b", "c"]).dims == (3, 2)
    with pytest.raises(UnknownSubsystem):
        space.axis("z")
    with pytest.raises(UnknownSubsystem):
        space.subspace(["a", "z"])


def test_space_tensor_joins_factors():
    a = HilbertSpace.of(("a", 2))
    b = HilbertSpace.of(("b", 3))
    assert a.tensor(b).labels == ("a", "b")
    with pytest.raises(LabelClash):
        a.tensor(a)


# ---------------------------------------------------------------------------
# pure states
# ---------------------------------------------------------------------------

def test_pure_state_requires_unit_norm():
    space = HilbertSpace.of(("s", 2))
    with pytest.raises(ToleranceBreach):
        PureState(space, np.array([1.0, 1.0]))
    with pytest.raises(SpaceMismatch):
        PureState(space, np.array([1.0, 0.0, 0.0]))


def test_pure_state_canonical_phase():
    """A global phase must not change the stored amplitudes."""
    space = HilbertSpace.of(("s", 2))
    v = np.array([0.6, 0.8j])
    a = PureState(space, v)
    b = PureState(space, np.exp(1.7j) * v)
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-14)
    assert a.amplitudes[0].imag == 0.0
    assert a.amplitudes[0].real > 0.0


def canonical_phase_reference(vectors: np.ndarray) -> np.ndarray:
    """The phase rule with a scalar division and scalar abs per column."""
    stack = vectors.reshape(len(vectors), -1)
    significant = np.abs(stack) > tol.PHASE_PIVOT
    cols = np.flatnonzero(significant.any(axis=0))
    rows = significant.argmax(axis=0)[cols]
    factors = np.ones(stack.shape[1], dtype=np.complex128)
    factors[cols] = [value.conjugate() / abs(value) for value in stack[rows, cols]]
    out = stack * factors
    out[rows, cols] = [abs(value) for value in out[rows, cols]]
    return out.reshape(vectors.shape)


def phase_cases(rng: np.random.Generator, d: int):
    """Eigenvector stacks, rotated Gaussian columns, columns whose pivot sits
    below row 0 or that have none, and ±0.0 parts."""
    for _ in range(3):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        yield np.linalg.eigh(g + g.conjugate().T)[1]
    yield (rng.standard_normal((d, 2 * d)) + 1j * rng.standard_normal((d, 2 * d))) * np.exp(
        1j * rng.uniform(-4.0, 4.0, size=2 * d)
    )
    g = rng.standard_normal((d, 8)) + 1j * rng.standard_normal((d, 8))
    for k in range(8):
        # rows above k are zero or below the pivot threshold
        g[: min(k, d - 1), k] *= [0.0, 1e-11, 1e-13, 0.5e-10][k % 4]
    g[:, 6] *= 0.9e-10 / np.abs(g[:, 6]).max()  # no significant amplitude: left unrotated
    g[:, 7] = 0.0
    yield g
    signed = np.empty((d, 8), dtype=np.complex128)
    parts = np.array([0.0, -0.0, 0.6, -0.6, 1e-300, -2.5])
    signed.real = rng.choice(parts, size=(d, 8))
    signed.imag = rng.choice(parts, size=(d, 8))
    # pivots on the axes, each sign of zero in the other part
    for k, (re, im) in enumerate([(-0.7, 0.0), (-0.7, -0.0), (0.0, -0.7), (-0.0, 0.7)]):
        signed[0, k] = complex(re, im)
    yield signed


def bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.uint64)


@pytest.mark.parametrize("d", [1, 2, 6, 48, 128])
def test_canonical_phase_matches_the_scalar_rule_bit_for_bit(d):
    rng = np.random.default_rng(SEED + d)
    space = HilbertSpace.of(("s", d))
    deep_pivots = unrotated_columns = 0
    for stack in phase_cases(rng, d):
        stack.setflags(write=False)
        out = _canonical_phase(stack)
        assert out.shape == stack.shape
        assert np.array_equal(bits(out), bits(canonical_phase_reference(stack)))
        significant = np.abs(stack) > tol.PHASE_PIVOT
        unrotated = ~significant.any(axis=0)
        assert np.array_equal(bits(out[:, unrotated]), bits(stack[:, unrotated]))
        deep_pivots += np.count_nonzero(significant.argmax(axis=0)[~unrotated] > 0)
        unrotated_columns += np.count_nonzero(unrotated)
        for column in stack.T[:4]:
            vector = np.array(column)
            expect = bits(canonical_phase_reference(vector))
            assert np.array_equal(bits(_canonical_phase(vector)), expect)
            norm = np.linalg.norm(vector)
            if norm > 0.0:
                unit = vector / norm
                amplitudes = PureState(space, unit).amplitudes
                assert np.array_equal(bits(amplitudes), bits(canonical_phase_reference(unit)))
    assert unrotated_columns >= 2
    assert d == 1 or deep_pivots >= 4


def test_basis_state_projector_and_density():
    space = HilbertSpace.of(("s", 3))
    psi = basis_state(space, 1)
    p = psi.projector()
    assert p[1, 1] == 1.0
    assert np.sum(np.abs(p)) == 1.0
    assert np.allclose(psi.density_matrix().matrix, p)


@pytest.mark.parametrize("index", [-1, 3, 1.5, "1", None])
def test_basis_state_refuses_an_index_outside_the_space(index):
    """An index is a whole number in [0, d): -1 does not wrap to the last
    state, and no index reaches numpy's own IndexError."""
    space = HilbertSpace.of(("a", 3))
    with pytest.raises(SpaceMismatch, match=r"^basis index .* is not in \[0, 3\)$"):
        basis_state(space, index)
    # a whole float or numpy integer reads as the index it equals, as a dimension does
    for whole in (2.0, np.int64(2)):
        assert basis_state(space, whole).amplitudes.tolist() == [0, 0, 1]


# complex amplitudes up to d = 512; at 1024 and 2048 real ones, whose eigensolve is a fraction
RANK_ONE_CASES = [(d, True) for d in (2, 3, 16, 128, 512)] + [(1024, False), (2048, False)]


@pytest.mark.parametrize("d, complex_amplitudes", RANK_ONE_CASES)
def test_a_pure_state_density_is_positive_by_construction(d, complex_amplitudes, monkeypatch):
    """density_matrix() runs no Cholesky and no eigensolve: v v^dag is
    positive, and rounding moves its smallest eigenvalue by at most
    d eps |v|^2 (4.5e-13 at d = 2048), far inside -EIG_FLOOR = 1e-10.  It keeps
    the Hermiticity and trace checks, and a NaN amplitude is still refused."""
    rng = np.random.default_rng(SEED + d)
    v = rng.normal(size=d) + (1j * rng.normal(size=d) if complex_amplitudes else 0.0)
    psi = PureState(HilbertSpace.of(("s", d)), v / np.linalg.norm(v))
    solvers = ("cholesky", "eigh", "eigvalsh")
    called = {name: getattr(np.linalg, name) for name in solvers}
    for name in solvers:
        monkeypatch.setattr(np.linalg, name, lambda *a, **k: pytest.fail("a solver ran"))
    rho = psi.density_matrix()
    monkeypatch.undo()
    assert not rho.matrix.flags.writeable
    assert np.array_equal(rho.matrix, psi.projector())
    matrix = rho.matrix if complex_amplitudes else rho.matrix.real
    assert complex_amplitudes or not rho.matrix.imag.any()
    lowest = float(called["eigvalsh"](matrix)[0])
    norm_sq = float(np.linalg.norm(psi.amplitudes) ** 2)
    assert -lowest <= d * np.finfo(float).eps * norm_sq <= 4.6e-13 < -tol.EIG_FLOOR
    bad = psi.amplitudes.copy()
    bad[d // 2] = np.nan
    with pytest.raises(ToleranceBreach, match="^state norm defect nan exceeds 1e-12$"):
        PureState(psi.space, bad)


def test_pure_state_phase_fuzz():
    rng = np.random.default_rng(SEED)
    space = HilbertSpace.of(("s", 4))
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        a = PureState(space, v)
        b = PureState(space, phase * v)
        assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

def test_density_matrix_rejects_bad_inputs():
    space = HilbertSpace.of(("s", 2))
    with pytest.raises(ToleranceBreach):
        DensityMatrix(space, np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ToleranceBreach):
        DensityMatrix(space, np.eye(2))  # trace 2
    with pytest.raises(ToleranceBreach):
        DensityMatrix(space, np.diag([1.5, -0.5]))  # negative eigenvalue


def test_maximally_mixed():
    rho = maximally_mixed(HilbertSpace.of(("s", 2), ("e", 2)))
    assert np.allclose(rho.matrix, np.eye(4) / 4)


# ---------------------------------------------------------------------------
# tensor and partial trace
# ---------------------------------------------------------------------------

def test_tensor_of_mixed_qubits_is_mixed_pair():
    a = maximally_mixed(HilbertSpace.of(("a", 2)))
    b = maximally_mixed(HilbertSpace.of(("b", 2)))
    joint = tensor(a, b)
    assert joint.space.total_dim == 4
    assert np.allclose(joint.matrix, np.eye(4) / 4)


def test_tensor_of_pure_projectors():
    up = basis_state(HilbertSpace.of(("a", 2)), 0).density_matrix()
    down = basis_state(HilbertSpace.of(("b", 2)), 1).density_matrix()
    joint = tensor(up, down)
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0
    assert np.allclose(joint.matrix, expect)


def test_tensor_dimension_bookkeeping():
    a = maximally_mixed(HilbertSpace.of(("a", 2)))
    b = maximally_mixed(HilbertSpace.of(("b", 3)))
    assert tensor(a, b).space.total_dim == 6
    with pytest.raises(LabelClash):
        tensor(a, a)


def test_partial_trace_recovers_product_factors():
    rng = np.random.default_rng(SEED)
    a = random_density(rng, HilbertSpace.of(("a", 2)))
    b = random_density(rng, HilbertSpace.of(("b", 3)))
    joint = tensor(a, b)
    assert np.allclose(partial_trace(joint, ["a"]).matrix, a.matrix, atol=1e-12)
    assert np.allclose(partial_trace(joint, ["b"]).matrix, b.matrix, atol=1e-12)


def test_partial_trace_of_bell_state_is_mixed():
    space = HilbertSpace.of(("s", 2), ("e", 2))
    bell = PureState(space, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    reduced = partial_trace(bell.density_matrix(), ["s"])
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_keeps_factor_order():
    rng = np.random.default_rng(SEED + 1)
    rho = random_density(rng, HilbertSpace.of(("a", 2), ("b", 2), ("c", 2)))
    kept = partial_trace(rho, ["c", "a"])
    assert kept.space.labels == ("a", "c")


def test_partial_trace_rejects_degenerate_requests():
    rho = maximally_mixed(HilbertSpace.of(("a", 2), ("b", 2)))
    with pytest.raises(NothingToTrace):
        partial_trace(rho, ["a", "b"])
    with pytest.raises(UnknownSubsystem):
        partial_trace(rho, ["z"])


# ---------------------------------------------------------------------------
# factor reordering and embedding
# ---------------------------------------------------------------------------

def test_permute_factors_round_trip():
    rng = np.random.default_rng(SEED + 2)
    space = HilbertSpace.of(("a", 2), ("b", 3), ("c", 2))
    rho = random_density(rng, space)
    turned, turned_space = permute_factors(rho.matrix, space, ["c", "a", "b"])
    assert turned_space.labels == ("c", "a", "b")
    back, back_space = permute_factors(turned, turned_space, ["a", "b", "c"])
    assert back_space == space
    assert np.allclose(back, rho.matrix, atol=1e-14)


def test_permute_factors_preserves_spectrum():
    rng = np.random.default_rng(SEED + 3)
    space = HilbertSpace.of(("a", 2), ("b", 2))
    rho = random_density(rng, space)
    turned, _ = permute_factors(rho.matrix, space, ["b", "a"])
    assert np.allclose(
        np.linalg.eigvalsh(turned), np.linalg.eigvalsh(rho.matrix), atol=1e-12
    )


# ---------------------------------------------------------------------------
# trace distance
# ---------------------------------------------------------------------------

def test_trace_distance_identity_and_orthogonal():
    space = HilbertSpace.of(("s", 2))
    up = basis_state(space, 0).density_matrix()
    down = basis_state(space, 1).density_matrix()
    assert trace_distance(up, up) == 0.0
    assert abs(trace_distance(up, down) - 1.0) < 1e-14


def test_trace_distance_plus_versus_mixed():
    """Eigenvalues of the difference are +-1/2, so the distance is 1/2."""
    space = HilbertSpace.of(("s", 2))
    plus = PureState(space, np.array([1.0, 1.0]) / np.sqrt(2)).density_matrix()
    assert abs(trace_distance(plus, maximally_mixed(space)) - 0.5) < 1e-14


def test_trace_distance_bounds_and_symmetry():
    rng = np.random.default_rng(SEED + 6)
    space = HilbertSpace.of(("s", 3))
    for _ in range(25):
        a = random_density(rng, space)
        b = random_density(rng, space)
        d = trace_distance(a, b)
        assert 0.0 <= d <= 1.0 + 1e-12
        assert abs(d - trace_distance(b, a)) < 1e-12
    with pytest.raises(SpaceMismatch):
        trace_distance(a, maximally_mixed(HilbertSpace.of(("s", 2))))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_space_json_round_trip():
    space = HilbertSpace.of(("s", 2), ("e", 3))
    assert space_from_json(space_to_json(space)) == space


def test_matrix_json_round_trip():
    rng = np.random.default_rng(SEED + 7)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(matrix_from_json(matrix_to_json(m)), m)


# ---------------------------------------------------------------------------
# one memo
# ---------------------------------------------------------------------------

def _dict_access(path: Path) -> list[int]:
    """Lines of one source file that read or write an object's __dict__."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append(node.lineno)
        if isinstance(node, ast.Constant) and node.value == "__dict__":
            found.append(node.lineno)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars":
            found.append(node.lineno)
    return found


def test_only_qcore_memoizes():
    """qcore._memo is the one place that keeps derived results on an object."""
    elsewhere = {
        path.name: _dict_access(path)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "qcore.py" and _dict_access(path)
    }
    assert elsewhere == {}
    assert len(_dict_access(SRC / "qcore.py")) == 1


def _memo_kinds(path: Path) -> list:
    """The kind argument of each _memo call in one source file: its string
    literal, or None where it is not one."""
    kinds = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_memo":
            kind = node.args[1] if len(node.args) > 1 else None
            literal = isinstance(kind, ast.Constant) and isinstance(kind.value, str)
            kinds.append(kind.value if literal else None)
    return kinds


def test_each_memo_call_names_its_own_kind():
    """One slot per kind: two call sites sharing a kind would evict each other."""
    kinds = [kind for path in sorted(SRC.glob("*.py")) for kind in _memo_kinds(path)]
    assert sorted(kinds) == ["decomposition", "report", "table"]


# ---------------------------------------------------------------------------
# the csv writer
# ---------------------------------------------------------------------------

def float_cell_reference(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r}")
    return repr(x)


# the per-cell rule the columnar writer replaced, keyed by exact type
CELL_TEXT_REFERENCE = {
    bool: ("false", "true").__getitem__,
    int: int.__repr__,
    float: float_cell_reference,
    str: str,
}


def csv_reference(header, columns) -> str:
    """One call per cell, row by row: the writer's specification."""
    lines = [",".join(header)]
    lines.extend(",".join(CELL_TEXT_REFERENCE[type(x)](x) for x in row) for row in zip(*columns))
    return "\n".join([*lines, ""])


CSV_LEAVES = [
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
]
# columns of one leaf kind each, all of one length
CSV_TABLES = st.integers(1, 40).flatmap(
    lambda rows: st.lists(
        st.sampled_from(CSV_LEAVES).flatmap(lambda leaf: st.lists(leaf, min_size=rows, max_size=rows)),
        min_size=1,
        max_size=5,
    )
)


def as_array(column):
    """The column as the bool, int or float array a runner would hand over, if it has one."""
    kind = type(column[0])
    if kind is str or (kind is int and not all(-(2**63) <= x < 2**63 for x in column)):
        return None
    return np.array(column, dtype={bool: bool, int: np.int64, float: np.float64}[kind])


@given(CSV_TABLES)
def test_csv_text_writes_the_bytes_of_the_per_cell_rule(columns):
    header = [f"c{k}" for k in range(len(columns))]
    expected = csv_reference(header, columns)
    assert _csv_text(header, columns) == expected
    arrays = [as_array(c) for c in columns]
    mixed = [c if a is None else a for c, a in zip(columns, arrays)]
    assert _csv_text(header, mixed) == expected


EXPLICIT_CSV_COLUMNS = {
    "signed_zeros": [[0.0, -0.0, 0.0, -0.0, -0.0]],
    "repeated_values": [[1.5, 1.5, 2.0, 1.5], [7, 7, 7, -7], [True, True, False, True], ["a", "a", "b", "a"]],
    "subnormal_and_large": [[5e-324, 1e16, -5e-324, 1e16, 1e-7]],
    "wide_ints": [[-(2**70), 2**70, 0, -(2**70)], [2**63 - 1, -(2**63), 5, 2**63 - 1]],
    "narrow_ints": [[3, -2, 3, 7, 0], [10, 12, 11, 10, 12]],
    "single_row": [[0.1], [3], [False], ["x"]],
}


@pytest.mark.parametrize("name", list(EXPLICIT_CSV_COLUMNS))
def test_csv_text_matches_the_per_cell_rule_on_edge_cases(name):
    columns = EXPLICIT_CSV_COLUMNS[name]
    header = [f"c{k}" for k in range(len(columns))]
    expected = csv_reference(header, columns)
    assert _csv_text(header, columns) == expected
    arrays = [as_array(c) for c in columns]
    assert _csv_text(header, [c if a is None else a for c, a in zip(columns, arrays)]) == expected


@pytest.mark.parametrize("row", [0, 2, 4])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_csv_text_refuses_a_non_finite_float_in_any_row(value, row):
    column = [0.5, -0.0, 0.5, 2.0, 0.5]
    column[row] = value
    for given_column in (column, np.array(column)):
        with pytest.raises(ValueError, match=f"non-finite value {value!r}"):
            _csv_text(["x", "n"], [given_column, list(range(5))])


def test_one_leaf_formatter():
    """float.__repr__, int.__repr__ and encode_basestring_ascii appear only in
    _leaf_texts, so the csv and json writers format every leaf one way."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                repr_of = (
                    isinstance(node, ast.Attribute)
                    and node.attr == "__repr__"
                    and getattr(node.value, "id", None) in ("float", "int")
                )
                escape = "encode_basestring_ascii" in (
                    getattr(node, "id", None), getattr(node, "attr", None)
                )
                if repr_of or escape:
                    found.add((path.stem, getattr(top, "name", None)))
    assert found == {("qcore", "_leaf_texts")}
