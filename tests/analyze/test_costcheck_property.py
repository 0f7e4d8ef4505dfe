"""Property test: static counts == analytic model for randomized shapes.

The registry pins three sizes; here hypothesis draws arbitrary small
``(kind, m, n)`` shapes and requires the abstract interpreter's charge
totals to equal :func:`repro.model.per_block_counts` term for term, and
every kernel's claimed FLOPs to equal the paper-convention count from
:mod:`repro.model.flops`.  Any kernel/model drift at *any* shape -- not
just the swept ones -- fails here first.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.costcheck import interpret
from repro.analyze.costcheck.checks import analytic_flops, model_terms
from repro.analyze.registry import KernelCase
from repro.kernels.infos import KERNEL_INFOS
from repro.model.flops import lu_flops, matrix_bytes, qr_flops

KINDS = st.sampled_from(
    ["lu", "lu_pivot", "qr", "qr_solve", "gauss_jordan", "cholesky",
     "least_squares"]
)


def _case(family, kind, m, n, seed):
    """A case for the table's ``family`` kernel of ``kind`` at ``m x n``."""
    (info,) = [i for i in KERNEL_INFOS if i.family == family and i.op == kind]

    def run(batch, seed):
        return info.launch(*info.inputs(m, n, seed, batch))

    return KernelCase(
        name=f"prop_{info.name}", op=kind, family=family,
        m=m, n=n, seed=seed, run=run,
    )


@settings(max_examples=20, deadline=None)
@given(kind=KINDS, n=st.integers(2, 9), extra=st.integers(0, 4))
def test_interpreted_counts_equal_analytic_counts(kind, n, extra):
    m = n + extra if kind in ("qr", "least_squares") else n
    case = _case("per_block", kind, m, n, seed=1234)
    fp = interpret(case).footprint
    expected = model_terms(case)
    assert fp.terms() == expected, {
        term: (fp.terms()[term], expected[term])
        for term in expected
        if fp.terms()[term] != expected[term]
    }


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["qr", "lu"]), n=st.integers(2, 10))
def test_per_thread_claims_match_the_paper_conventions(kind, n):
    case = _case("per_thread", kind, n, n, seed=99)
    fp = interpret(case).footprint
    expected = qr_flops(n, n) if kind == "qr" else lu_flops(n)
    assert fp.flops_per_problem == expected
    # DRAM traffic is read + write of the matrix, plus spill re-touches
    assert fp.global_bytes - fp.spill_bytes == 2 * matrix_bytes(n, n)


@settings(max_examples=20, deadline=None)
@given(kind=KINDS, n=st.integers(2, 9), extra=st.integers(0, 4))
def test_kernel_claimed_flops_equal_model_flops(kind, n, extra):
    m = n + extra if kind in ("qr", "least_squares") else n
    case = _case("per_block", kind, m, n, seed=1234)
    fp = interpret(case).footprint
    assert fp.flops_per_problem == analytic_flops(kind, m, n)
