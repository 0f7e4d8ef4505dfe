"""Coverage of the device-kernel table: every exported kernel has a
:class:`~repro.kernels.infos.KernelInfo`, and every info names a real one."""

from repro.experiments.runner import RUNTIME_OPS
from repro.kernels import device
from repro.kernels.infos import KERNEL_INFOS
from repro.model.per_block_model import COUNT_KINDS
from repro.runtime import supported_ops


def test_coverage():
    listed = {info.entry for info in KERNEL_INFOS}
    exported = {
        name
        for name, kernel in vars(device).items()
        if callable(kernel) and name.startswith(("per_block_", "per_thread_"))
    }
    missing = exported - listed
    assert not missing, (
        f"kernel(s) {sorted(missing)} are exported by repro.kernels.device but "
        "have no KernelInfo; add one to KERNEL_INFOS in repro/kernels/infos.py"
    )
    unknown = listed - exported
    assert not unknown, f"KernelInfo(s) name missing kernel(s) {sorted(unknown)}"


def test_names_are_unique():
    names = [info.name for info in KERNEL_INFOS]
    assert len(names) == len(set(names))


def test_families_and_per_block_ops_are_known():
    assert {info.family for info in KERNEL_INFOS} == {"per_block", "per_thread"}
    per_block = [info.op for info in KERNEL_INFOS if info.family == "per_block"]
    assert set(per_block) <= set(COUNT_KINDS)


def test_runtime_ops_come_from_the_table():
    assert supported_ops() == ["cholesky", "lu", "lu_pivot", "qr"]
    assert list(RUNTIME_OPS) == supported_ops()
