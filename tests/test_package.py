import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

from conftest import load_spans
import finiteweyl

SRC = pathlib.Path(finiteweyl.__file__).parent


def test_every_public_name_resolves_to_its_home_module_object():
    for name in finiteweyl.__all__:
        value = getattr(finiteweyl, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    namespace: dict = {}
    exec("from finiteweyl import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(finiteweyl.__all__)
    assert set(finiteweyl.__all__) <= set(dir(finiteweyl))
    assert finiteweyl.group is importlib.import_module("finiteweyl.group")
    with pytest.raises(AttributeError, match="has no attribute 'serialize_everything'"):
        finiteweyl.serialize_everything


def test_the_scalar_twins_are_not_public():
    # the scalar forms of the P_d laws and of a tensor label's factors are
    # test oracles, not library API
    assert len(finiteweyl.__all__) == 38
    for name in (
        "FormalCombination",
        "pd_character",
        "pd_compose_key",
        "pd_irrep",
        "pd_lie_bracket",
        "tensor_pauli",
    ):
        assert name not in finiteweyl.__all__
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(finiteweyl, name)


def test_importing_the_package_loads_none_of_its_modules():
    code = "import sys, finiteweyl; print([m for m in sys.modules if m.startswith('finiteweyl')])"
    argv = [sys.executable, "-c", code]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "['finiteweyl']\n")


def unreferenced_definitions() -> set[tuple[str, str]]:
    """Each top-level function or class of `src/finiteweyl` that nothing there names.

    A reference is a name or an attribute in code, so the strings of
    `__init__._EXPORTS`, docstrings and check names do not count, and
    neither does a definition's use of itself.
    """
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((path.stem, stmt.name))
                names.discard(stmt.name)
            referenced |= names
    return {(module, name) for module, name in defined if name not in referenced}


def test_every_definition_in_src_is_used_in_src():
    # the entry points that stay without a caller: the PEP 562 hooks, the
    # functions the benchmark traces, and the README's single-element and
    # exact-export API
    traced = {tuple(target.split(".")) for target in load_spans().TARGETS}
    allowed = {target for target in traced if len(target) == 2} | {
        ("__init__", "__getattr__"),
        ("__init__", "__dir__"),
        ("serialize", "import_exact"),
        ("serialize", "export"),
    }
    assert unreferenced_definitions() - allowed == set()


class KernelRefused(Exception):
    pass


def _single_element_calls():
    from finiteweyl.basis import commutator_table, pauli_commutator, tensor_indices_commute
    from finiteweyl.group import PdElement, pd_centralizer_size
    from finiteweyl.operators import MonomialOperator, monomial_mul

    u, v = MonomialOperator.w(3, 1, 1, 2), MonomialOperator.w(3, 2, 0, 1)
    g, h = PdElement(1, 2, 0, 3), PdElement(0, 1, 1, 3)
    return {
        ("operators", "monomial_mul_array"): [
            lambda: monomial_mul(u, v),
            lambda: u @ v,
            lambda: u**3,
        ],
        ("operators", "monomial_adjoint_array"): [u.adjoint, lambda: u**-1],
        ("operators", "monomial_trace_array"): [u.trace_exact, u.trace],
        ("group", "pd_compose_array"): [lambda: g.compose(h)],
        ("group", "pd_inverse_array"): [g.inverse],
        ("group", "pd_centralizer_sizes"): [lambda: pd_centralizer_size(g)],
        ("basis", "monomial_mul_array"): [
            lambda: pauli_commutator(3, (1, 0), (0, 1), "-"),
            lambda: commutator_table(3),
        ],
        ("basis", "tensor_commutation_table"): [
            lambda: tensor_indices_commute((2, 2), (1, 0, 0, 1), (0, 1, 1, 0))
        ],
    }


@pytest.mark.parametrize("module, kernel", list(_single_element_calls()))
def test_single_element_api_reads_the_row_kernels(monkeypatch, module, kernel):
    # one implementation per law: with its kernel refused, each single-element
    # form of the law fails, so a scalar copy of the law cannot come back unnoticed
    calls = _single_element_calls()[module, kernel]

    def refuse(*args, **kwargs):
        raise KernelRefused(f"{module}.{kernel}")

    monkeypatch.setattr(importlib.import_module(f"finiteweyl.{module}"), kernel, refuse)
    for call in calls:
        with pytest.raises(KernelRefused):
            call()
