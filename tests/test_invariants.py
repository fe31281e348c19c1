"""Internal invariants of the package must survive `python -O`, which
strips assert statements, so the package raises explicitly instead."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import diffrees

TESTS = Path(__file__).resolve().parent
TRACER = TESTS.parent / "bench" / "tracer.py"

# Definitions that no code in `src/` calls, kept for their outside callers.
UNCALLED_KEPT = {
    "PolyMatrix.row": "demos/04_eagon_northcott.py prints the first "
                      "differential's row",
    "VariableContext.gens": "demos 01 and 04 name their variables with it",
    "koszul_complex": "demos/04_eagon_northcott.py compares it with the "
                      "complex of a one-row matrix",
    "probe_corpus": "bench/workloads.py draws the probe workload from it",
    "run_case": "bench/worker.py runs every benchmark instance through it",
    "IdealHandle.saturation_by_ideal": "bench/tracer.py wraps it by name",
    "validation_issues": "bench/tracer.py wraps it by name; "
                         "tests/test_algebra.py reads every issue at once",
}

# Fields of records (dataclasses and NamedTuples) that no code in `src/`
# reads as an attribute, kept for their outside readers; a class name
# keeps every field of the class.
UNREAD_KEPT = {
    "FreeResolution.shifts": "the Hilbert-numerator check of the frame "
                             "(ROADMAP item 7, tests/test_resolution.py)",
    "DimensionReport.witness": "demos/01_groebner_basics.py prints the "
                               "independent variables",
    "IrrelevantLocalData": "hypotheses_section serializes it whole by "
                           "_asdict",
    "SpreadRecord": "_rees_cm serializes it whole by asdict",
}


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(Path(diffrees.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found


def test_only_groebner_runs_a_heap():
    """One Groebner engine: the heap-ordered pair queue and normal form
    live in `groebner.py`, and no other module builds its own."""
    importers = []
    for path in sorted(Path(diffrees.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if "heapq" in names:
                importers.append(path.name)
    assert importers == ["groebner.py"]


def _top_functions(name):
    """The top-level functions of the package module `name`, by name."""
    path = Path(diffrees.__file__).parent / name
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_reduction_loops_make_no_fraction_and_no_tuple_key():
    """The Buchberger loop, the interreduction, the S-polynomial, the
    normal form, the Schreyer records, the frame and the Laplace
    expansion of minors run on ints: scales and multipliers are int
    pairs, and the key of every product is an int added from others, so
    they do not name `Fraction` and the S-polynomial, the normal form and
    the expansion call no order key."""
    functions = _top_functions("groebner.py")
    laplace = _top_functions("matrix.py")["_laplace"]
    frame = _top_functions("resolution.py")["free_resolution"]
    for name, function in (*((n, functions[n]) for n in
                             ("_nf", "_spoly", "_buchberger",
                              "_interreduce", "_schreyer_records")),
                           ("_laplace", laplace),
                           ("free_resolution", frame)):
        names = {node.id for node in ast.walk(function)
                 if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(function)
                  if isinstance(node, ast.Attribute)}
        assert "Fraction" not in names, name
    for name, function in (("_nf", functions["_nf"]),
                           ("_spoly", functions["_spoly"]),
                           ("_laplace", laplace)):
        called = {getattr(node.func, "attr", getattr(node.func, "id", None))
                  for node in ast.walk(function)
                  if isinstance(node, ast.Call)}
        assert not called & {"key", "key_for"}, name


def test_the_frame_runs_on_packed_ints():
    """`resolution.py` takes the cached packed basis, not the monic
    Polynomials: it calls no `groebner_basis`, makes no `Polynomial`,
    and names `Fraction` only in `_constant_rank`, the rank over Q of
    the constant entries."""
    path = Path(diffrees.__file__).parent / "resolution.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    named = _named(tree)
    assert not any(named[name] for name in
                   ("groebner_basis", "Polynomial", "_polynomial", "_make"))
    rank = _top_functions("resolution.py")["_constant_rank"]
    inside = _named(rank)["Fraction"]
    assert inside and named["Fraction"] == inside


def test_one_converter_makes_polynomials_from_packed_ints():
    """In `groebner.py` and `matrix.py` the kernel's packed ints become
    Fractions and Polynomials in one place: `Fraction` and `._make` are
    named only inside the converter `groebner._polynomial`."""
    for name in ("groebner.py", "matrix.py"):
        path = Path(diffrees.__file__).parent / name
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        converters = [node for node in tree.body
                      if getattr(node, "name", None) == "_polynomial"]
        inside = {id(node) for c in converters for node in ast.walk(c)}
        found = [node.lineno for node in ast.walk(tree)
                 if id(node) not in inside
                 and (getattr(node, "id", None) == "Fraction"
                      or getattr(node, "attr", None) == "_make")]
        assert not found, name
    converter = _top_functions("groebner.py")["_polynomial"]
    assert _named(converter)["Fraction"] and _named(converter)["_make"]


def _minors_reduced_one_by_one(tree):
    """Line numbers in `tree` where `.reduce(` or `.normal_form(` is
    applied to the elements of a `.minors(` or `.jacobian_minors(`
    result: by a comprehension or a for loop over such a call, or over a
    name bound to one in the same function, or by `map`."""
    minors = {"minors", "jacobian_minors"}
    reducers = {"reduce", "normal_form"}

    def calls(node, attrs):
        return any(isinstance(n, ast.Call)
                   and getattr(n.func, "attr", None) in attrs
                   for n in ast.walk(node))

    found = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        bound = {t.id for n in ast.walk(function) if isinstance(n, ast.Assign)
                 and calls(n.value, minors)
                 for t in n.targets if isinstance(t, ast.Name)}

        def over_minors(node):
            return calls(node, minors) or any(
                isinstance(n, ast.Name) and n.id in bound
                for n in ast.walk(node))

        for node in ast.walk(function):
            if isinstance(node, (ast.ListComp, ast.SetComp,
                                 ast.GeneratorExp, ast.DictComp)):
                loops = [(g.iter, node) for g in node.generators]
            elif isinstance(node, ast.For):
                loops = [(node.iter, ast.Module(body=node.body,
                                                type_ignores=[]))]
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "map"
                  and len(node.args) > 1
                  and getattr(node.args[0], "attr", None) in reducers):
                loops = [(arg, None) for arg in node.args[1:]]
            else:
                continue
            if any(over_minors(it) and (body is None or calls(body, reducers))
                   for it, body in loops):
                found.append(node.lineno)
    return sorted(set(found))


def test_no_minor_is_reduced_on_its_own():
    """Minors are reduced modulo an ideal inside the expansion
    (`PolyMatrix.minors(..., modulo=...)`), never one by one afterwards.
    The check is first tried on loops of the forms it must catch."""
    caught = """
def a(algebra, matrix, t):
    minors = [algebra.reduce(m) for m in matrix.minors(t)]
def b(algebra, c):
    return [algebra.reduce(m) for m in algebra.jacobian_minors(c)[0]]
def c(quotient, matrix, t):
    gens = list(map(quotient.reduce, matrix.minors(t)))
def d(handle, matrix, t):
    found = matrix.minors(t)
    for m in found:
        yield handle.normal_form(m)
"""
    assert len(_minors_reduced_one_by_one(ast.parse(caught))) == 4
    for path in sorted(Path(diffrees.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        assert not _minors_reduced_one_by_one(tree), path.name


def test_step_budget_is_opened_only_at_the_entry_points():
    """The step budget lives in `groebner`: only the entry points of a
    case, which open one (`run_case`, and `_door` behind `open_case` and
    `en_dump`), take a `budget`, and only `groebner.py` builds a
    StepCounter."""
    owners, builders = set(), set()
    for path in sorted(Path(diffrees.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                if any(a.arg == "budget" for a in args.posonlyargs
                       + args.args + args.kwonlyargs):
                    owners.add(node.name)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "StepCounter"):
                builders.add(path.name)
    assert owners <= {"step_budget", "run_case", "open_case", "en_dump",
                      "_door"}
    assert {"run_case", "open_case"} <= owners
    assert builders == {"groebner.py"}


def test_cli_main_keeps_no_error_path_of_its_own():
    """Every command reports what goes wrong through the verifier's door,
    which opens the case's step budget: `cli.main` holds no `try` and
    opens no `step_budget`."""
    from diffrees import cli
    path = Path(cli.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    (main,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    nodes = list(ast.walk(main))
    assert not [node for node in nodes if isinstance(node, ast.Try)]
    assert "step_budget" not in {getattr(node, "id", None)
                                 for node in nodes}


def _traced_entry_points():
    """The ENTRY_POINTS of `bench/tracer.py`, read without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), str(TRACER))
    (entry_points,) = [ast.literal_eval(node.value)
                       for node in tree.body if isinstance(node, ast.Assign)
                       and [getattr(t, "id", None) for t in node.targets]
                       == ["ENTRY_POINTS"]]
    return entry_points


def test_every_traced_entry_point_resolves():
    """`bench/tracer.py` wraps its ENTRY_POINTS by name, so a renamed or
    deleted function breaks a traced benchmark run; the file is only
    read."""
    entry_points = _traced_entry_points()
    assert entry_points
    for module_name, path, _ in entry_points:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module_name}.{path}"


def _named(node, kinds=(ast.Name, ast.Attribute)):
    """How often each name occurs in `node` as one of `kinds`: a variable
    (`ast.Name`) or an attribute (`ast.Attribute`)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, kinds))


def test_every_definition_has_a_caller():
    """Every top-level function in the package is named in `src/` outside
    its own body and `__init__.py`, and every method is named there as an
    attribute, unless Python calls it (a dunder) or UNCALLED_KEPT says who
    calls it, the tracer's ENTRY_POINTS included; each UNCALLED_KEPT entry
    is a definition nothing in `src/` names."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(Path(diffrees.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
    functions, methods = (ast.Name, ast.Attribute), (ast.Attribute,)
    named = {kinds: sum((_named(t, kinds) for t in trees), Counter())
             for kinds in (functions, methods)}
    uncalled = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                owner, members, kinds = f"{node.name}.", node.body, methods
            else:
                owner, members, kinds = "", [node], functions
            for member in members:
                if not isinstance(member, ast.FunctionDef):
                    continue
                name = member.name
                if (not (name.startswith("__") and name.endswith("__"))
                        and named[kinds][name]
                        == _named(member, kinds)[name]):
                    uncalled.add(owner + name)
    assert uncalled - set(UNCALLED_KEPT) == set()
    assert set(UNCALLED_KEPT) <= uncalled


def _record_fields(tree):
    """(class, field) for every annotated field of a dataclass or a
    NamedTuple defined at the top of `tree`."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [getattr(d, "func", d) for d in node.decorator_list]
        if not ("dataclass" in [getattr(d, "id", None) for d in decorators]
                or "NamedTuple" in [getattr(b, "id", None)
                                    for b in node.bases]):
            continue
        for member in node.body:
            if (isinstance(member, ast.AnnAssign)
                    and isinstance(member.target, ast.Name)):
                yield node.name, member.target.id


def test_every_record_field_has_a_reader():
    """Every field of a dataclass or a NamedTuple in the package is read
    in `src/` as an attribute of that name, unless UNREAD_KEPT names its
    reader; each UNREAD_KEPT entry names a class or a field with a field
    that nothing in `src/` reads."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(Path(diffrees.__file__).parent.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = {(owner, name) for tree in trees
              for owner, name in _record_fields(tree) if name not in read}
    assert {f"{owner}.{name}" for owner, name in unread
            if owner not in UNREAD_KEPT
            and f"{owner}.{name}" not in UNREAD_KEPT} == set()
    for entry in UNREAD_KEPT:
        assert any(entry in (owner, f"{owner}.{name}")
                   for owner, name in unread), entry


def test_every_oracle_has_a_caller():
    """Every top-level definition in `tests/oracles.py` is named in a test
    module or `conftest.py`, or inside another definition there that is
    itself named so: a reference that nothing checks against is dead."""
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node) for t in node.targets
                           if isinstance(t, ast.Name))
    named = set()
    for path in [*TESTS.glob("test_*.py"), TESTS / "conftest.py"]:
        named |= set(_named(ast.parse(path.read_text(encoding="utf-8"))))
    reached = named & set(defined)
    frontier = set(reached)
    while frontier:
        inside = set().union(*(_named(defined[name]) for name in frontier))
        frontier = (inside & set(defined)) - reached
        reached |= frontier
    assert set(defined) - reached == set()
