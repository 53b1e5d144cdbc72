"""Every name a kernel module imports at module level is used in it, no
function imports from a module that its file already imports at module
level (a function-local import is kept only to break an import cycle), and
every top-level definition and method of a kernel module is named somewhere
else; and the closure rules the tt engine infers, its slot table and the
tt -> cf dispatch table name the same rules."""

import ast
import inspect
import pathlib
import re

import pytest

from fintt import translate
from fintt import tt_engine as tt

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fintt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line."""
    names = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                names[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                names[alias.asname or alias.name] = stmt.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A forward reference such as Optional["Expr"].
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"



def sources(stmt) -> set:
    """The modules an import statement reads from, as (level, dotted name);
    ``from . import x`` reads from ``x``."""
    if isinstance(stmt, ast.Import):
        return {(0, alias.name) for alias in stmt.names}
    if stmt.module is None:
        return {(stmt.level, alias.name) for alias in stmt.names}
    return {(stmt.level, stmt.module)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_local_import_of_a_module_imported_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = (ast.Import, ast.ImportFrom)
    top = set().union(*(sources(s) for s in tree.body if isinstance(s, imports)))
    redundant = sorted(
        {
            f"{'.' * level}{name} (line {stmt.lineno})"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for stmt in ast.walk(fn)
            if isinstance(stmt, imports)
            for level, name in sources(stmt) & top
        }
    )
    assert not redundant, (
        f"{path.name} imports inside a function from modules it imports at module level: "
        f"{', '.join(redundant)}"
    )


def definitions(tree: ast.Module):
    """(qualified name, name, first line, last line) of each module-level
    function, class and assignment target, and of each method of a
    module-level class."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        for name in names:
            yield name, name, stmt.lineno, stmt.end_lineno
        if isinstance(stmt, ast.ClassDef):
            for fn in stmt.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{stmt.name}.{fn.name}", fn.name, fn.lineno, fn.end_lineno


def referenced_words(text: str) -> dict[str, set[int]]:
    """Each word the code of a Python text names -> the lines naming it: its
    identifiers, attribute names and import names, and the words of its string
    literals without whitespace (``derive.STEPS`` names constructors as
    strings).  Comments and prose strings such as docstrings are not code."""
    words: dict[str, set[int]] = {}
    for node in ast.walk(ast.parse(text)):
        names = []
        for field in ("id", "attr", "name", "asname", "arg", "module", "names", "kwd_attrs"):
            value = getattr(node, field, None)
            names += [value] if isinstance(value, str) else []
            names += [v for v in value if isinstance(v, str)] if isinstance(value, list) else []
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if not any(c.isspace() for c in node.value):
                names.append(node.value)
        for name in names:
            for word in re.findall(r"\w+", name):
                words.setdefault(word, set()).add(node.lineno)
    return words


def unreferenced_definitions(root: pathlib.Path) -> list[str]:
    """The top-level definitions and methods of ``src/fintt`` whose name the
    code of ``src/``, ``tests/`` and ``bench/`` (``referenced_words``), or the
    text of ``pyproject.toml``, names nowhere outside their own definition;
    dunder names are exempt."""
    files = sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py"))
    texts = {p: p.read_text(encoding="utf-8") for p in files}
    words = {p: referenced_words(text) for p, text in texts.items()}
    project = (root / "pyproject.toml").read_text(encoding="utf-8")
    found = []
    for path in sorted((root / "src" / "fintt").glob("*.py")):
        for qualname, name, first, last in definitions(ast.parse(texts[path])):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = any(not first <= line <= last for line in words[path].get(name, ()))
            others = any(name in w for p, w in words.items() if p != path)
            if not (own or others or re.search(rf"\b{re.escape(name)}\b", project)):
                found.append(f"{path.stem}.{qualname}")
    return found


def test_every_top_level_definition_is_named_elsewhere():
    unused = unreferenced_definitions(ROOT)
    assert not unused, f"definitions named nowhere else: {', '.join(unused)}"


def infer_cases() -> set[str]:
    """The closure rules ``tt_engine._infer`` has a ``match rule`` case for."""
    tree = ast.parse((SRC / "tt_engine.py").read_text(encoding="utf-8"))
    infer = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_infer")
    (match,) = (
        m for m in ast.walk(infer)
        if isinstance(m, ast.Match) and isinstance(m.subject, ast.Name) and m.subject.id == "rule"
    )
    return {
        p.value.value
        for case in match.cases
        for p in ast.walk(case.pattern)
        if isinstance(p, ast.MatchValue)
    }


def test_closure_rules_have_a_slot_row_and_a_translation():
    """A closure rule ``_infer`` accepts has a ``_SLOTS`` row, and a rule
    concluding a judgement or boundary has a ``TTtoCF`` case: no rule enters
    the trust base without the walks that rebuild and translate it."""
    assert infer_cases() == set(tt._SLOTS)
    assert set(tt._SLOTS) - tt._CTX_RULES == set(translate.TTtoCF._KINDS)


# The recursions left in the walk modules, each with its bound.  Every other
# walk over a derivation runs on ``tt_engine.walk`` and uses no frame per level.
ALLOWED_RECURSION = {
    # bounded by the binder prefix of the boundaries
    "cf_engine.boundary_convert",
}


def call_graph(path: pathlib.Path) -> dict[str, set[str]]:
    """Each function, nested function and method of a module -> the ones of
    them it calls: a name, resolved from the innermost enclosing function
    out, unless a parameter or assignment of the caller binds it; a method
    ``self.m``; and every method of the class for ``getattr(self, ...)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions: dict[str, tuple] = {}  # qualified name -> (node, enclosing functions, class)

    def collect(body, scope, cls):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                collect(stmt.body, (), stmt.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(filter(None, (cls, *scope, stmt.name)))
                functions[name] = (stmt, scope, cls)
                collect(stmt.body, (*scope, stmt.name), cls)
            else:
                for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                    collect(getattr(stmt, field, []), scope, cls)

    collect(tree.body, (), None)
    methods: dict = {}  # class -> its methods
    for qual, (_, scope, cls) in functions.items():
        if cls and not scope:
            methods.setdefault(cls, set()).add(qual.split(".")[1])

    def own_nodes(fn):
        """The nodes of ``fn``'s body outside its nested functions and classes."""
        stack = list(fn.body) + list(fn.args.defaults)
        while stack:
            n = stack.pop()
            yield n
            if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(n))

    graph: dict[str, set[str]] = {}
    for qual, (fn, scope, cls) in functions.items():
        nodes = list(own_nodes(fn))
        bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        bound |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        out = graph[qual] = set()
        for call in (n for n in nodes if isinstance(n, ast.Call)):
            f = call.func
            if isinstance(f, ast.Name) and f.id not in bound:
                chain = [(*scope, fn.name)[:i] for i in range(len(scope) + 1, -1, -1)]
                for prefix in chain:
                    target = ".".join(filter(None, (cls if prefix else None, *prefix, f.id)))
                    if target in functions:
                        out.add(target)
                        break
            elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "self":
                if f.attr in methods.get(cls, ()):
                    out.add(f"{cls}.{f.attr}")
            elif isinstance(f, ast.Call) and getattr(f.func, "id", None) == "getattr":
                if getattr(f.args[0], "id", None) == "self":
                    out |= {f"{cls}.{m}" for m in methods[cls]}
    return graph


def recursive_functions(path: pathlib.Path) -> set[str]:
    """The functions of a module that its call graph reaches from themselves."""
    graph = call_graph(path)
    found = set()
    for start in graph:
        stack, seen = list(graph[start]), set()
        while stack:
            f = stack.pop()
            if f == start:
                found.add(f"{path.stem}.{start}")
                break
            if f not in seen:
                seen.add(f)
                stack.extend(graph[f])
    return found


def test_the_walk_modules_recurse_only_where_bounded():
    """No function of ``tt_engine``, ``translate`` or ``cf_engine`` reaches
    itself through the calls it makes by name but the bounded recursions
    named above."""
    found = set()
    for module in ("tt_engine", "translate", "cf_engine"):
        found |= recursive_functions(SRC / f"{module}.py")
    assert found == ALLOWED_RECURSION


def test_tt_to_cf_node_kinds_are_plain_functions():
    """The tt -> cf walk step translates a node's premises itself and hands
    their certificates to its kind's method, which is no generator."""
    for name in set(translate.TTtoCF._KINDS.values()):
        assert not inspect.isgeneratorfunction(getattr(translate.TTtoCF, name)), name


def test_translate_labels_from_the_annotation_caches_only():
    """tt -> cf labels a suitable context from the certificates' annotation
    caches, and derives no cf annotation."""
    assert "CFDeriver" not in referenced_words((SRC / "translate.py").read_text(encoding="utf-8"))


def test_no_module_hands_boundary_convert_a_presupposition():
    """``boundary_convert`` reads the boundary a judgement fills off the
    judgement: no caller certifies it with ``presuppositions_cf`` and passes
    it in, directly or through a name."""

    def called(node, name):
        f = node.func if isinstance(node, ast.Call) else None
        return getattr(f, "attr", getattr(f, "id", None)) == name

    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        presups = {
            t.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Assign) and called(n.value, "presuppositions_cf")
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        for n in ast.walk(tree):
            if called(n, "boundary_convert"):
                for arg in n.args:
                    if called(arg, "presuppositions_cf") or getattr(arg, "id", None) in presups:
                        found.append(f"{path.name}:{n.lineno}")
    assert not found, found


def test_translate_keeps_each_value_in_one_place():
    """A label is a certificate, whose payload is the annotation, so tt -> cf
    keeps no payload map beside a certificate map; transported congruence
    keeps each premise's derivations in its ``EqInstEntry`` only."""
    tree = ast.parse((SRC / "translate.py").read_text(encoding="utf-8"))
    bound = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    bound |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
    assert not bound & {"th", "thc", "ga", "gac", "lhs_fill", "rhs_fill", "prev_eq_tt"}


def test_translate_signatures_take_labels_and_no_context():
    def parameters(f):
        return list(inspect.signature(f).parameters)

    assert parameters(translate.TTtoCF.translate) == ["self", "d", "metas", "variables"]
    assert "ctx" not in parameters(translate.cf_judgement_to_tt)


def test_right_fill_of_transported_congruence_takes_no_callable():
    """``_j_fill_tt`` reads the earlier premises' derivations off their
    entries: none of its parameters is called."""
    tree = ast.parse((SRC / "translate.py").read_text(encoding="utf-8"))
    (f,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_j_fill_tt"]
    params = {a.arg for a in f.args.args}
    called = {n.func.id for n in ast.walk(f) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert params and not params & called


def record_writes(path: pathlib.Path) -> list[str]:
    """The places in a module that write a certificate's record: a call of
    the engine's maker ``_cert`` or of a certificate class, or an assignment
    to a ``record`` attribute."""
    found = []
    for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(n, ast.Call):
            name = getattr(n.func, "attr", getattr(n.func, "id", None))
            if name in ("_cert", "Certificate", "CertifiedJudgement", "CertifiedBoundary"):
                found.append(f"{path.name}:{n.lineno}")
        elif isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "record" for t in targets):
                found.append(f"{path.name}:{n.lineno}")
    return found


def test_only_the_cf_engine_writes_a_certificate_record():
    """A record is written where its certificate is made, by the engine: no
    other module makes a certificate or assigns a record."""
    outside = [w for p in MODULES if p.name != "cf_engine.py" for w in record_writes(p)]
    assert not outside, outside


def recorded_kinds() -> set[str]:
    """The kinds of the records ``cf_engine`` writes: each tuple whose first
    item names one of its functions.  Every call of ``_cert`` passes one."""
    tree = ast.parse((SRC / "cf_engine.py").read_text(encoding="utf-8"))
    functions = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
    kinds = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_cert":
            assert len(n.args) == 4, f"cf_engine.py:{n.lineno} makes a certificate without a record"
        if isinstance(n, ast.Tuple) and n.elts and isinstance(n.elts[0], ast.Constant):
            if n.elts[0].value in functions:
                kinds.add(n.elts[0].value)
    return kinds


def test_the_searched_record_kinds_are_the_documented_ones():
    """The kinds cf -> tt may hand to the search, those with no route and
    those whose route the context can block, are the ones the ``CfToTT``
    docstring lists; every other kind the engine records has a route."""
    routes = set(translate.CfToTT._TWINS) | set(translate.CfToTT._ROUTES)
    searched = (recorded_kinds() - routes) | translate._BLOCKABLE
    doc = inspect.getdoc(translate.CfToTT)
    listed = re.search(r"Searched kinds: (.*?)\.\s", doc, re.S).group(1)
    assert searched == set(re.findall(r"``(\w+)``", listed))
    assert routes <= recorded_kinds()


# The cf engine's closure-rule constructors, and the meta-theorems that mint a
# certificate beside them: the trusted base of the context-free presentation.
CF_CONSTRUCTORS = {
    "cf_var", "cf_abstract_fwd", "cf_meta", "cf_meta_congr", "cf_eqty_refl", "cf_eqty_sym",
    "cf_eqty_trans", "cf_eqtm_refl", "cf_eqtm_sym", "cf_eqtm_trans", "cf_conv_tm", "cf_conv_eqtm",
    "cf_bdry_ty", "cf_bdry_tm", "cf_bdry_eqty", "cf_bdry_eqtm", "cf_apply_rule", "cf_congruence",
    "cf_substitute", "cf_subst_eq", "cf_instantiate",
}
CF_META_THEOREMS = {
    "presuppositions_cf", "boundary_components", "binder_type_cert", "invert_cf",
    "natural_type_eq", "strengthen",
}


def test_only_the_constructors_and_the_named_meta_theorems_mint():
    """The functions of ``cf_engine`` that call its maker ``_cert`` are the
    closure-rule constructors and the named meta-theorems: anything else,
    such as boundary conversion, is built from them."""
    tree = ast.parse((SRC / "cf_engine.py").read_text(encoding="utf-8"))
    minting = {
        f.name
        for f in tree.body
        if isinstance(f, ast.FunctionDef)
        for n in ast.walk(f)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_cert"
    }
    assert minting == CF_CONSTRUCTORS | CF_META_THEOREMS


def test_only_the_tt_engine_makes_a_derivation_node():
    """No module but ``tt_engine`` constructs a ``Derivation`` or reaches
    ``_infer``: every other node goes through ``node()``."""
    found = []
    for path in MODULES:
        if path.name == "tt_engine.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(n, "attr", getattr(n, "id", None))
            called = isinstance(n, ast.Call) and getattr(n.func, "attr", getattr(n.func, "id", None))
            if name == "_infer" or called == "Derivation":
                found.append(f"{path.name}:{n.lineno}")
    assert not found, found
