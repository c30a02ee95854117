"""The repository's own pytest settings keep a failing property test readable."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_given_test_prints_its_falsifying_example(pytester):
    # every warning is an error, so a warning raised by hypothesis' own report
    # hook must be filtered, or pytest prints an INTERNALERROR in its place
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    test_file = pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_ten(n):
            assert n < 10
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", test_file)
    out = result.stdout.str() + result.stderr.str()
    assert "Falsifying example" in out and "INTERNALERROR" not in out
    result.assert_outcomes(failed=1)
