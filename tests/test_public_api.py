"""The public star-import surface of the package, and the names the
benchmark tracer binds by name."""

import ast
import os
import pathlib
import subprocess
import sys
import types

import grusskit

ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC = [
    'BadExponent', 'BoundReport', 'CertificateInvalid', 'ClassMismatch',
    'DegenerateCell', 'DegenerateIntegrator', 'DegenerateWeight',
    'DomainError', 'Enclosure', 'FunctionalValue', 'GeneratorExhausted',
    'GrussKitError', 'HypothesisFailed', 'IntegralResult',
    'MalformedCertificate', 'NegativeWeight', 'NotMonotone', 'Partition',
    'PiecewiseFunction', 'QuadratureResult', 'RegularityCertificate',
    'SchemaError', 'SharedDiscontinuity', 'ToleranceUnreachable',
    'UnknownWitness', 'WITNESS_IDS', 'Witness', 'adaptive_quadrature',
    'beta_int', 'bound_D_corollaries', 'bound_D_kernel',
    'bound_D_monotone_K', 'bound_D_monotone_Q', 'bound_D_prior',
    'bound_T_bv', 'bound_T_holder_bv', 'bound_T_holder_lipschitz',
    'bound_T_holder_monotone', 'bound_T_lipschitz_u', 'bound_T_monotone',
    'cheby_T', 'composite_S', 'eval_sided', 'evaluate_witness',
    'functional_D', 'functional_E', 'identity_residual_D', 'inf_sup_on',
    'kernel_delta', 'kernel_gamma', 'kernel_phi', 'oscillation_v',
    'ostrowski_pointwise', 'p_branch_constant_estimate', 'p_norm',
    'positivity_check_D', 'remainder_bound_holder', 'remainder_bound_osc',
    'riemann_integral', 'rs_integral', 'rs_oracle', 'run_catalogue',
    'sharpness_ratio', 'sup_norm_on', 'total_variation',
    'verify_certificate', 'weighted_Tw', 'weighted_bounds', 'witness',
]


def test_all_is_pinned():
    assert sorted(grusskit.__all__) == PUBLIC


def test_all_lists_no_modules():
    assert not [name for name in grusskit.__all__
                if isinstance(getattr(grusskit, name), types.ModuleType)]


def test_benchmark_tracer_finds_every_traced_name():
    # perfbench/spans.py wraps grusskit functions by module and name and
    # raises RuntimeError for any it cannot find
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; sys.path.insert(0, 'perfbench'); import spans; "
            "spans.install(spans.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_sees_the_critical_point_layers():
    # the quadrature path reaches poly's critical points through the public
    # names the tracer wraps, so the per-layer trace counts them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import spans\n"
        "from grusskit import PiecewiseFunction, adaptive_quadrature\n"
        "tracer = spans.Tracer(); spans.install(tracer)\n"
        "f = PiecewiseFunction.build((0.0, 0.4, 1.0),\n"
        "                            ((1.0, 2.0), (2.52, -2.0, 0.5)))\n"
        "u = PiecewiseFunction.from_coeffs((0.0, 1.0, 1.0), 0.0, 1.0)\n"
        "adaptive_quadrature(f, f, u, 1e-3)\n"
        "print(tracer.calls['poly.pminmax_on'], "
        "tracer.calls['poly.pcritical'])\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    minmax, critical = map(int, proc.stdout.split())
    assert minmax > 0 and critical > 0


def test_benchmark_tracer_sees_the_divided_difference_integrals():
    # the cor_a_8 and cor_a_9 integrals of |delta|^p reach the Gauss rule
    # through the public name the tracer wraps, so it counts their nodes
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    code = (
        "import random, sys; sys.path.insert(0, 'perfbench'); import spans\n"
        "from grusskit import battery\n"
        "tracer = spans.Tracer(); spans.install(tracer)\n"
        "for tid in ('cor_a_8', 'cor_a_9'):\n"
        "    battery.THEOREMS[tid](random.Random(f'0:{tid}:0'))\n"
        "print(tracer.counts['funcrep.gauss_integral.nodes'], "
        "tracer.calls['bounds.bound_D_corollaries.a13'], "
        "tracer.calls['bounds.bound_D_corollaries.a14'])\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    nodes, a13, a14 = map(int, proc.stdout.split())
    assert nodes > 0 and a13 > 0 and a14 > 0


def test_src_imports_neither_mpmath_nor_scipy():
    # both are test-side references only, never runtime dependencies
    banned = {"mpmath", "scipy"}
    found = []
    for path in sorted((ROOT / "src" / "grusskit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] in banned]
    assert not found


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level private names (one leading underscore, not dunder)
    bound by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target)
                          if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_src_name_is_used():
    # a private helper or constant that nothing in src/ reads is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "grusskit").glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [(name, private) for name, tree in trees.items()
              for private in _private_definitions(tree)
              if private not in used]
    assert not unused


def _nodes_by_scope(path: pathlib.Path) -> list[tuple[str, ast.AST]]:
    """(qualified name of the innermost enclosing def, node) for every
    node of a source file; module-level nodes get the module name."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            out.append((scope, child))
            visit(child, scope)
    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return out


def _validation_bypasses(src: pathlib.Path) -> dict:
    """Where ``src/grusskit`` builds an object without its __init__
    (any ``X.__new__(...)`` call) or sets an attribute past a frozen
    dataclass (``object.__setattr__``), and where it calls the trusted
    constructor ``_trusted``, keyed by enclosing function."""
    found = {"bypass": set(), "trusted": set()}
    for path in sorted(src.glob("*.py")):
        for scope, node in _nodes_by_scope(path):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr, owner = node.func.attr, node.func.value
            if attr == "__new__" or (attr == "__setattr__"
                                     and isinstance(owner, ast.Name)
                                     and owner.id == "object"):
                found["bypass"].add(scope)
            elif attr == "_trusted":
                found["trusted"].add(scope)
    return found


def test_validation_is_bypassed_only_by_the_trusted_constructor():
    # every PiecewiseFunction the package builds runs __post_init__, except
    # through PiecewiseFunction._trusted, whose callers only slice
    # validated fields and hand it the numbers they form themselves
    found = _validation_bypasses(ROOT / "src" / "grusskit")
    assert found["bypass"] == {"funcrep.PiecewiseFunction._trusted"}
    assert found["trusted"] == {"funcrep.PiecewiseFunction.restrict"}


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_one_verdict_rule_and_one_exponent_rule():
    # a report's holds and ratio are decided in bounds._mk_report alone:
    # nothing else builds a BoundReport or replaces its verdict
    builders, overrides = set(), set()
    for path in sorted((ROOT / "src" / "grusskit").glob("*.py")):
        for scope, node in _nodes_by_scope(path):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "BoundReport":
                builders.add(scope)
            elif name == "replace" and {kw.arg for kw in node.keywords} \
                    & {"holds", "ratio"}:
                overrides.add(scope)
    assert builders == {"bounds._mk_report"}
    assert not overrides
    # the L^p branches read p only to ask whether it was given; the
    # exponent itself is checked by bounds._conjugate
    compared = set()
    for scope, node in _nodes_by_scope(ROOT / "src" / "grusskit"
                                       / "bounds.py"):
        if not isinstance(node, ast.Compare) or scope == "bounds._conjugate":
            continue
        operands = [node.left, *node.comparators]
        if any(isinstance(x, ast.Name) and x.id == "p" for x in operands) \
                and not (isinstance(node.ops[0], ast.IsNot)
                         and isinstance(node.comparators[0], ast.Constant)
                         and node.comparators[0].value is None):
            compared.add(scope)
    assert not compared
