import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwtree.terms import (
    Abst,
    App,
    MetaApp,
    RhsOnlyError,
    Var,
    alpha_eq,
    build_app,
    free_vars,
    fresh_var,
    subst,
    symb,
)


def lam(v, body):
    return Abst(v, None, body)


# ---------------------------------------------------------------------------
# free_vars


def test_free_vars_bound_occurrence():
    x = fresh_var("x")
    assert free_vars(lam(x, x)) == set()


def test_free_vars_unbound():
    x, y = fresh_var("x"), fresh_var("y")
    assert free_vars(lam(x, App(symb("sin"), y))) == {y.vid}


def test_free_vars_mixed_scopes():
    # f (\x, g x y) x'  with x' distinct from x
    x, y, x2 = fresh_var("x"), fresh_var("y"), fresh_var("x")
    t = build_app(symb("f"), [lam(x, build_app(symb("g"), [x, y])), x2])
    assert free_vars(t) == {y.vid, x2.vid}


def test_free_vars_rejects_meta():
    with pytest.raises(RhsOnlyError):
        free_vars(MetaApp("v", ()))


# ---------------------------------------------------------------------------
# subst


def test_subst_single_var():
    x = fresh_var("x")
    assert subst(x, {x.vid: symb("0")}) is symb("0")


def test_subst_capture_forces_rename():
    x, y = fresh_var("x"), fresh_var("y")
    t = lam(y, x)
    r = subst(t, {x.vid: y})
    assert isinstance(r, Abst)
    assert r.var.vid != y.vid  # fresh binder
    assert r.body is y
    z = fresh_var("z")
    assert alpha_eq(r, lam(z, y))


def test_subst_duplicates_argument():
    x = fresh_var("x")
    s0 = App(symb("s"), symb("0"))
    t = build_app(symb("plus"), [x, x])
    r = subst(t, {x.vid: s0})
    assert alpha_eq(r, build_app(symb("plus"), [s0, s0]))


def test_subst_shadowed_binder_id_untouched():
    # substituting under a binder that reuses the substituted identity
    x = fresh_var("x")
    t = lam(x, x)
    r = subst(t, {x.vid: symb("a")})
    assert alpha_eq(r, t)


# ---------------------------------------------------------------------------
# alpha_eq


def test_alpha_eq_renaming():
    x, y = fresh_var("x"), fresh_var("y")
    assert alpha_eq(lam(x, x), lam(y, y))


def test_alpha_eq_distinguishes_binders():
    x1, y1 = fresh_var("x"), fresh_var("y")
    x2, y2 = fresh_var("x"), fresh_var("y")
    assert not alpha_eq(lam(x1, lam(y1, x1)), lam(x2, lam(y2, y2)))


def test_alpha_eq_symbols():
    assert not alpha_eq(App(symb("f"), symb("a")), App(symb("f"), symb("b")))


def test_alpha_eq_meta():
    x, y = fresh_var("x"), fresh_var("y")
    assert alpha_eq(lam(x, MetaApp("v", (x,))), lam(y, MetaApp("v", (y,))))
    assert not alpha_eq(MetaApp("v", ()), MetaApp("w", ()))


# ---------------------------------------------------------------------------
# randomized properties


@st.composite
def closed_terms(draw, depth=3, scope=()):
    options = ["symb", "zero"]
    if depth > 0:
        options += ["app", "abst"]
    if scope:
        options += ["var", "var"]
    kind = draw(st.sampled_from(options))
    if kind == "var":
        return draw(st.sampled_from(list(scope)))
    if kind in ("symb", "zero"):
        return symb(draw(st.sampled_from(["a", "b", "c", "f", "g"])))
    if kind == "app":
        fn = draw(closed_terms(depth=depth - 1, scope=scope))
        arg = draw(closed_terms(depth=depth - 1, scope=scope))
        return App(fn, arg)
    v = fresh_var(draw(st.sampled_from(["x", "y", "z"])))
    body = draw(closed_terms(depth=depth - 1, scope=scope + (v,)))
    return Abst(v, None, body)


@st.composite
def open_terms(draw):
    free = tuple(fresh_var(n) for n in ("u1", "u2"))
    t = draw(closed_terms(scope=free))
    return t, free


@given(open_terms())
@settings(max_examples=60)
def test_subst_empty_is_identity(tf):
    t, _ = tf
    assert subst(t, {}) is t
    assert alpha_eq(subst(t, {}), t)


@given(open_terms(), closed_terms())
@settings(max_examples=60)
def test_subst_free_var_bound(tf, u):
    t, free = tf
    x = free[0]
    r = subst(t, {x.vid: u})
    lhs = free_vars(r)
    rhs = (free_vars(t) - {x.vid}) | free_vars(u)
    assert lhs <= rhs


@given(open_terms())
@settings(max_examples=60)
def test_alpha_eq_is_equivalence(tf):
    t, free = tf
    assert alpha_eq(t, t)
    # build alpha-variants by renaming through substitution
    u = subst(t, {free[0].vid: free[0]})
    v = subst(t, {free[1].vid: free[1]})
    assert alpha_eq(t, u) == alpha_eq(u, t)
    if alpha_eq(t, u) and alpha_eq(u, v):
        assert alpha_eq(t, v)


@given(open_terms())
@settings(max_examples=60)
def test_deep_renaming_stays_alpha_equal(tf):
    t, free = tf
    # renaming every binder via a no-op substitution preserves alpha-class
    r = subst(t, {free[0].vid: fresh_var("w")})
    r2 = subst(r, {})
    assert alpha_eq(r, r2)


def test_iterative_traversals_handle_deep_terms():
    t = symb("0")
    for _ in range(50_000):
        t = App(symb("s"), t)
    assert free_vars(t) == set()
    assert alpha_eq(t, t)
    assert subst(t, {}) is t
