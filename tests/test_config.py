"""Tolerances are fixed constants: `twistcert.config` holds only floats, and no
public callable takes a tolerance argument or the command line a flag."""

import inspect

import pytest

import twistcert
import twistcert.cli
import twistcert.config
from twistcert.cli import main

TOLERANCE_PARAMETERS = {"tol", "slack", "seed_atol", "merge_tol"}
# is_unitary(m, tol) measures at a caller's threshold, and Certificate.slack
# is a certificate's computed margin: neither is a setting
EXEMPT = {"is_unitary", "Certificate"}


def public_callables():
    """Every callable exported by twistcert or twistcert.cli, and every
    public method of the exported classes, by qualified name."""
    for module in (twistcert, twistcert.cli):
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_callable_takes_a_tolerance():
    offenders = []
    for qualname, obj in public_callables():
        if qualname.rsplit(".", 1)[-1] in EXEMPT:
            continue
        params = inspect.signature(obj).parameters
        offenders += [f"{qualname}({p})" for p in TOLERANCE_PARAMETERS & set(params)]
    assert not offenders


def test_config_holds_only_float_constants():
    public = {k: v for k, v in vars(twistcert.config).items() if not k.startswith("_")}
    assert public
    assert all(type(v) is float for v in public.values()), public


def test_certify_tol_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--alpha", "0.25", "--delta", "0.5", "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


# the operator norm is the only certifying gauge, and minima runs serially
@pytest.mark.parametrize("argv", [
    ["certify", "--alpha", "0.25", "--delta", "0.5", "--norm", "fro"],
    ["certify", "--alpha", "0.25", "--delta", "0.5", "--p", "2"],
    ["certify", "--alpha", "0.25", "--delta", "0.5", "--k", "2"],
    ["minima", "--g", "2", "--grid", "0:1:3", "--workers", "2"],
])
def test_removed_flag_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_certify_double_takes_no_slack_switch():
    for certifier in (twistcert.certify_single, twistcert.certify_double):
        assert "compute_slack" not in inspect.signature(certifier).parameters
