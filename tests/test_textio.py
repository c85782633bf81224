"""The shared text format: unit tests of textio, a check that no other
module decides the float format, and a fuzz of every artifact reader."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from motionflow import flowmatch, sampler, se3, synthworld, textio, trajeval, vfnet

RNG = np.random.default_rng
SRC = Path(textio.__file__).parent


class TestFormat:
    def test_floats_round_trip_exactly(self):
        values = list(RNG(1).standard_normal(200) * 10.0 ** RNG(2).integers(-300, 300, 200))
        values += [0.1, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf]
        back = [float(cell) for cell in textio.fmt(values).split(",")]
        assert back == values
        assert [math.copysign(1.0, v) for v in back] == [math.copysign(1.0, v) for v in values]
        assert textio.fmt([math.nan]) == "nan"

    def test_separator_and_numpy_scalars(self):
        assert textio.fmt(np.array([0.5, 2.0]), " ") == "0.5 2"
        assert textio.fmt([np.float64(0.1)]) == textio.fmt([0.1]) == "0.10000000000000001"

    def test_write_lines_ends_every_line(self, tmp_path):
        path = tmp_path / "out.txt"
        textio.write_lines(path, iter(["a", "b,c"]))
        assert path.read_text() == "a\nb,c\n"
        textio.write_lines(path, [])
        assert path.read_text() == ""

    def test_no_other_module_formats_floats(self):
        """The float format is decided in textio alone."""
        for module in sorted(SRC.glob("*.py")):
            if module.name != "textio.py":
                assert not re.search(r"[%:]\.17g", module.read_text()), module.name


class TestNumbered:
    def test_line_numbers_count_blanks_and_comments(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# head\n\n  a b  \n\t\n# mid\nc\n")
        assert list(textio.numbered(path)) == [(f"{path}:3", "a b"), (f"{path}:6", "c")]
        assert [where for where, _ in textio.numbered(path, skip_comments=False)] == [
            f"{path}:1", f"{path}:3", f"{path}:5", f"{path}:6"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert list(textio.numbered(path)) == []


class TestAt:
    def test_prefixes_value_errors(self):
        with pytest.raises(ValueError) as err:
            with textio.at("f.csv:7"):
                float("x")
        assert str(err.value) == "f.csv:7: could not convert string to float: 'x'"
        assert isinstance(err.value.__cause__, ValueError)

    def test_nests_and_passes_other_errors_through(self):
        with pytest.raises(ValueError, match=r"^f:2: key: bad$"):
            with textio.at("f:2"):
                with textio.at("key"):
                    raise ValueError("bad")
        with pytest.raises(KeyError):
            with textio.at("f:2"):
                raise KeyError("k")
        with textio.at("f:2"):
            pass


class TestCells:
    def test_floats_checks_the_count(self):
        assert textio.floats(["1", " 2.5"], 2) == [1.0, 2.5]
        with pytest.raises(ValueError, match="expected 3 fields, got 2"):
            textio.floats(["1", "2"], 3)
        with pytest.raises(ValueError, match="'two'"):
            textio.floats(["1", "two"], 2)

    def test_key_value(self):
        assert textio.key_value(" lr = 0.5 ", {}) == ("lr", "0.5")
        assert textio.key_value("a=b=c", {"b": 1}) == ("a", "b=c")
        with pytest.raises(ValueError, match="expected key=value"):
            textio.key_value("lr 0.5", {})
        with pytest.raises(ValueError, match="^key 'lr' repeated$"):
            textio.key_value(" lr = 0.5 ", {"lr": 0.1})


# --- reader fuzz ----------------------------------------------------------------
#
# Each reader gets a valid file from its own writer, with one line mutated:
# a cell replaced by drawn text, a cell dropped or duplicated, or the file
# cut short.  The reader must return or raise a ValueError that starts with
# the file's path.  Replacement text is an edge value or at most 4 drawn
# characters, so a mutated size in a checkpoint header stays small.

SMALL_NET = vfnet.NetConfig(cond_dim=3, time_embed_dim=4, state_embed_dim=3,
                            cond_hidden_dim=3, cond_embed_dim=3,
                            trunk_widths=(4,), head_widths=(3,))


def _tum(path):
    trajeval.write_tum(path, synthworld.make_trajectory("random-walk", 5, RNG(3)))


def _dataset(path):
    synthworld.write_scenario_dataset(path, synthworld.make_scenario(
        "fuzz", "random-walk", 5, 0.2, 0.05, RNG(4), cond_dim=3))


def _checkpoint(path):
    vfnet.save_checkpoint(path, vfnet.init_params(RNG(5), SMALL_NET))


def _config(path):
    path.write_text("# schedule\nbatch_size = 8\nepochs = 3\nlr = 0.002\n"
                    "lr_decay_epoch = 2\nseed = 5\nlr_decay_factor = 0.25\n")


def _estimates(path):
    rng = RNG(6)
    sampler.write_estimates_csv(path, [
        sampler.PoseSampleSet(np.empty((0, 6)),
                              se3.MotionState(*np.split(rng.uniform(-1, 1, 6), 2)),
                              rng.uniform(0, 1, 6))
        for _ in range(4)])


def _read_dataset(path):
    return synthworld.read_dataset_header(path), synthworld.ingest_features(path)


READERS = {
    "tum": (_tum, " ", trajeval.read_tum),
    "dataset": (_dataset, ",", _read_dataset),
    "checkpoint": (_checkpoint, " ", vfnet.load_checkpoint),
    "config": (_config, " ", flowmatch.load_train_config),
    "estimates": (_estimates, ",", sampler.read_estimates_csv),
}

MUTATIONS = st.tuples(
    st.sampled_from(["replace", "drop", "duplicate", "truncate"]),
    st.integers(0, 2 ** 20), st.integers(0, 2 ** 20),
    st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e200", "1e999", "", "#"]),
              st.text(st.characters(codec="utf-8"), max_size=4)))


def mutate(text: str, sep: str, mutation) -> str:
    op, line_pick, cell_pick, new = mutation
    if op == "truncate":
        return text[:line_pick % len(text)]
    lines = text.splitlines()
    row = line_pick % len(lines)
    cells = lines[row].split(sep)
    cell = cell_pick % len(cells)
    if op == "replace":
        cells[cell] = new
    elif op == "drop":
        del cells[cell]
    else:
        cells.insert(cell, cells[cell])
    lines[row] = sep.join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=50, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=MUTATIONS)
def test_mutated_file_is_read_or_rejected_with_its_path(tmp_path, kind, mutation):
    write, sep, read = READERS[kind]
    path = tmp_path / f"{kind}.txt"
    write(path)
    path.write_text(mutate(path.read_text(), sep, mutation))
    try:
        read(path)
    except ValueError as err:
        assert str(err).startswith(str(path)), err


@pytest.mark.parametrize("kind", sorted(READERS))
def test_unmutated_file_is_read(tmp_path, kind):
    write, _, read = READERS[kind]
    path = tmp_path / f"{kind}.txt"
    write(path)
    read(path)
