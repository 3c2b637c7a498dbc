"""The tcore command line entry point."""

import json

import pytest

from tcore._rat import QQ, parse_rat
from tcore.cli import main
from tcore.npoint import brute_force_Ft


def test_main_prints_the_route_payload(capsys):
    assert main(["closed_Ft", "--t", "2", "--s", "4", "9/4", "--order", "4", "--q2", "5/3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "closed_Ft"
    assert payload["s"] == ["4", "9/4"] and payload["q2"] == "5/3"
    assert payload["order2"] == 8 and payload["elapsed_ms"] > 0
    assert payload["terms"] == 2  # {1, 2} labelled 0; {1}{2} labelled (0, 1)
    brute = brute_force_Ft(2, (QQ(4), QQ(9, 4)), 4)
    assert {int(e): parse_rat(c) for e, c in payload["series"].items()} == brute.terms


@pytest.mark.parametrize("argv", [
    ["closed_Ft", "--t", "3", "--s", "4/0", "--order", "2", "--q2", "1"],
    ["closed_Ft", "--t", "3", "--s", "4", "--order", "2", "--q2", "1/0"],
], ids=["s", "q2"])
def test_a_zero_denominator_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid parse_rat value" in capsys.readouterr().err


def test_parse_rat_refuses_a_zero_denominator():
    with pytest.raises(ValueError, match="'4/0' has a zero denominator"):
        parse_rat("4/0")
