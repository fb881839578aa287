"""The arithmetic kernel is one module, and its sparse product is traceable."""

import vertexlink
from vertexlink import ring, tensor
from vertexlink.tensor import SqMatrix


def test_kernel_name_is_py():
    assert vertexlink.kernel_name() == "py"


def test_sqmatrix_product_goes_through_kernel_spgemm(monkeypatch):
    # the benchmark's traced run wraps tensor.K.spgemm the same way
    calls = []
    spgemm = tensor.K.spgemm

    def counting(a, b):
        calls.append((len(a), len(b)))
        return spgemm(a, b)

    monkeypatch.setattr(tensor.K, "spgemm", counting)
    x = ring.one() + ring.s_power(2)
    a = SqMatrix(2, {(0, 1): x, (1, 0): ring.s_power(1)})
    assert (a @ a).entries == {(0, 0): ring.s_power(1) * x,
                               (1, 1): ring.s_power(1) * x}
    assert calls == [(2, 2)]
