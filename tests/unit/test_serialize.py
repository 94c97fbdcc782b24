"""Unit tests for the JSON and CSV export of stack artefacts."""

import json

import numpy as np
import pytest

from repro.io.serialize import save_characterization, save_grid_results
from tests.unit.test_policies_basic import make_char


@pytest.fixture()
def char():
    return make_char(
        monitor=[230, 210, 190, 170],
        needed=[230, 180, 160, 150],
        boundaries=[0, 2, 4],
    )


class TestCharacterizationExport:
    def test_save_writes_format_tag_and_arrays(self, char, tmp_path):
        path = save_characterization(char, tmp_path / "char.json")
        data = json.loads(path.read_bytes())
        assert data["format"] == "repro.mix-characterization.v1"
        assert data["mix_name"] == char.mix_name
        for name in ("job_boundaries", "monitor_power_w", "needed_power_w",
                     "needed_cap_w"):
            np.testing.assert_array_equal(np.asarray(data[name]),
                                          getattr(char, name), err_msg=name)
        assert data["min_cap_w"] == char.min_cap_w
        assert data["tdp_w"] == char.tdp_w


class TestGridExport:
    def test_save_grid_results(self, small_grid, tmp_path):
        results = small_grid.run_all(mixes=["LowPower"], levels=["ideal"])
        path = save_grid_results(results, tmp_path / "grid.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 5  # header + five policies
        assert "LowPower" in lines[1]
