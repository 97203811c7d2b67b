"""CLI argument validation: bad counts, seeds, depths and budgets are
argparse errors."""

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "argv",
    [
        ["chaos", "--clients", "0"],
        ["chaos", "--seed", "-1"],
        ["chaos", "--workers", "0"],
        ["sched", "--requests", "0"],
        ["fleet", "--requests", "-3"],
        ["directory", "--shards", "0"],
        ["directory", "--replication", "0"],
        ["tenants", "--victims", "0"],
        ["tenants", "--aggressors", "0"],
        ["deploy", "--servers", "0"],
        ["deploy", "--loadgens", "0"],
        ["demo", "--seed", "-5"],
        ["search", "--seed", "x"],
        ["sched", "--depths", "1,x"],
        ["sched", "--batch-size", "0"],
        ["sched", "--budget", "-1"],
        ["fleet", "--batch-size", "0"],
        ["fleet", "--budget", "-1"],
    ],
)
def test_bad_count_or_seed_exits_2_without_traceback(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}" in err
    assert "Traceback" not in err


def test_replication_beyond_shards_exits_2_without_traceback(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["directory", "--shards", "2", "--replication", "5"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "argument --replication" in err
    assert "Traceback" not in err
