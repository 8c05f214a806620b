import re

import numpy as np
import pytest

from dqubit.scatter import DetectionMatrix
from dqubit.serialize import (
    parse_counts,
    parse_detection_matrix,
    write_counts,
    write_detection_matrix,
    write_estimate,
    write_table,
)
from dqubit.tomography import CountsVector, solve_constrained


@pytest.fixture
def matrix(reference_matrix):
    return DetectionMatrix(
        row_labels=("sigma+", "sigma-", "pi", "sigma+pi", "sigma-pi"),
        col_labels=("d-3/2", "d-1/2", "d+1/2", "d+3/2"),
        means=reference_matrix,
        sems=0.01 * np.ones_like(reference_matrix),
        trials=1234,
        seed=99,
    )


def test_detection_matrix_round_trip(matrix):
    text = write_detection_matrix(matrix, config_hash="abc123")
    back = parse_detection_matrix(text)
    assert back.row_labels == matrix.row_labels
    assert back.col_labels == matrix.col_labels
    assert np.array_equal(back.means, matrix.means)
    assert np.array_equal(back.sems, matrix.sems)
    assert back.trials == matrix.trials
    assert back.seed == matrix.seed
    assert "config-hash: abc123" in text


def test_counts_round_trip():
    c = CountsVector(
        values=np.array([1.25, 0.0, 3.5e-7, 12.0, 0.125]),
        trials=777,
        labels=("sigma+", "sigma-", "pi", "sigma+pi", "sigma-pi"),
    )
    back = parse_counts(write_counts(c, seed=5))
    assert np.array_equal(back.values, c.values)
    assert back.trials == 777
    assert back.labels == c.labels


def test_counts_written_at_full_precision():
    c = CountsVector(values=np.array([1 / 3, 2 / 7]), trials=3)
    back = parse_counts(write_counts(c))
    assert back.values[0] == c.values[0]
    assert back.values[1] == c.values[1]


def test_estimate_document_fields(matrix):
    counts = CountsVector(values=matrix.means @ np.array([0.4, 0.3, 0.2, 0.1]), trials=100)
    est = solve_constrained(counts, matrix, efficiency=1.0)
    text = write_estimate(est, config_hash="ff00", seed=3)
    assert "method: constrained" in text
    assert "populations: " in text
    assert "config-hash: ff00" in text
    assert text.count("cov: ") == 4


def test_table_layout():
    text = write_table(["t", "x"], [np.array([0.0, 1.0]), np.array([0.5, 0.25])], seed=1)
    lines = text.strip().splitlines()
    assert lines[0].startswith("# dqubit table")
    assert "t,x" in lines
    assert lines[-1] == "1,0.25"


def test_table_rejects_ragged_columns():
    with pytest.raises(ValueError):
        write_table(["a", "b"], [np.zeros(3), np.zeros(2)])


def test_malformed_documents_rejected():
    with pytest.raises(ValueError):
        parse_detection_matrix("# dqubit detection-matrix v1\ntrials: 3\n")
    with pytest.raises(ValueError):
        parse_counts("# dqubit counts v1\ntrials: 3\n")


@pytest.mark.parametrize(
    "drop,row",
    [("mean sigma+pi ", "sigma+pi"), ("sem pi ", "pi")],
)
def test_missing_matrix_line_names_row(matrix, drop, row):
    lines = write_detection_matrix(matrix).splitlines()
    text = "\n".join(l for l in lines if not l.startswith(drop))
    with pytest.raises(ValueError, match=re.escape(f"line for row '{row}'")):
        parse_detection_matrix(text)


def test_short_matrix_line_names_row(matrix):
    text = write_detection_matrix(matrix).replace("mean sigma- 0 0 ", "mean sigma- 0 ")
    with pytest.raises(ValueError, match="row 'sigma-' has 3 values for 4 columns"):
        parse_detection_matrix(text)
