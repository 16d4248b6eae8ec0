"""The workload generators are pure functions of the seed."""

from collections import Counter

from perfbench.workloads import (
    CHURN_LARGE_SIZES, CHURN_SMALL_POINTS, REACH, SERVICE_COUNTS, LargeRewrite, SmallRewrite,
    churn_block, seeded_grid, service_block, service_stencils,
)


def test_same_seed_same_inputs():
    assert churn_block(7, 3, 4, 1024) == churn_block(7, 3, 4, 1024)
    assert service_block(7, 3) == service_block(7, 3)
    assert service_stencils(7) == service_stencils(7)
    assert seeded_grid(7, "stencil_sweep", 8, 8) == seeded_grid(7, "stencil_sweep", 8, 8)


def test_other_seed_or_block_other_inputs():
    assert churn_block(7, 3, 4, 1024) != churn_block(8, 3, 4, 1024)
    assert churn_block(7, 3, 4, 1024) != churn_block(7, 4, 4, 1024)
    assert service_block(7, 3) != service_block(8, 3)
    assert seeded_grid(7, "stencil_sweep", 8, 8) != seeded_grid(8, "stencil_sweep", 8, 8)


def test_churn_block_composition_is_fixed():
    ops = churn_block(11, 0, 4, 1024)
    small = [op for op in ops if isinstance(op, SmallRewrite)]
    large = [op for op in ops if isinstance(op, LargeRewrite)]
    assert sorted(len(op.points) for op in small) == sorted(CHURN_SMALL_POINTS)
    assert sorted(op.n for op in large) == sorted(CHURN_LARGE_SIZES)
    # one large range inside each node's slice: exactly one is local
    assert sorted(op.lo // 1024 for op in large) == [0, 1, 2, 3]
    assert all(op.lo // 1024 == (op.lo + op.n - 1) // 1024 for op in large)
    for op in small:
        assert all(abs(dx) <= REACH and abs(dy) <= REACH for _, dx, dy in op.points)
        assert len({(dx, dy) for _, dx, dy in op.points}) == len(op.points)


def test_service_block_composition_is_fixed():
    ops = service_block(11, 0)
    kinds = Counter(op[0] for op in ops)
    stencil_calls, pgas_calls, data_writes, known_writes = SERVICE_COUNTS
    assert kinds["scall"] == stencil_calls
    assert kinds["pcall"] == pgas_calls
    assert kinds["put"] + kinds["cell"] == data_writes
    assert kinds["coef"] + kinds["desc"] == known_writes
    # each known write is followed by a call to the key it invalidated
    for op, after in zip(ops, ops[1:]):
        if op[0] == "coef":
            assert after[:2] == ("scall", op[1])
        if op[0] == "desc":
            assert after[:2] == ("pcall", op[1])


def test_zipf_favours_low_ranks():
    keys = Counter(op[1] for i in range(20) for op in service_block(5, i) if op[0] == "scall")
    assert keys[0] > keys[3] > keys[7]
