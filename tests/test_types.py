import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import uavfl
from conftest import const_image, make_samples, make_uav, no_samples
from uavfl.errors import InvariantViolation
from uavfl.types import RoundRecord, Samples


class TestSamples:
    def test_rejects_non_uint8(self):
        with pytest.raises(InvariantViolation):
            Samples(np.zeros((1, 4, 4), dtype=np.float64), [0])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(InvariantViolation):
            Samples(np.zeros((4, 4), dtype=np.uint8), [0] * 4)

    def test_rejects_empty(self):
        with pytest.raises(InvariantViolation):
            Samples(np.zeros((1, 0, 4), dtype=np.uint8), [0])

    @pytest.mark.parametrize("label", [2, -1, 0.5, np.nan, "0"],
                             ids=["2", "-1", "0.5", "nan", "str-0"])
    def test_rejects_bad_label(self, label):
        with pytest.raises(InvariantViolation, match="labels must be 0 or 1"):
            Samples(np.zeros((2, 4, 4), dtype=np.uint8), [0, label])

    @pytest.mark.parametrize("labels", [[0], [0, 1, 0]])
    def test_rejects_mismatched_columns(self, labels):
        with pytest.raises(InvariantViolation):
            Samples(np.zeros((2, 4, 4), dtype=np.uint8), labels)

    def test_dimensions(self):
        s = Samples(np.zeros((2, 3, 5), dtype=np.uint8), [0, 1])
        assert len(s) == 2 and s.images.shape == (2, 3, 5)
        assert len(no_samples()) == 0 and no_samples().labels.shape == (0,)

    @pytest.mark.parametrize("labels", [np.array([0, 1, 1]), np.array([False, True, True])],
                             ids=["int", "bool"])
    def test_accepts_binary_labels(self, labels):
        s = Samples(np.zeros((3, 4, 4), dtype=np.uint8), labels)
        assert s.labels.dtype == np.int8 and s.labels.tolist() == [0, 1, 1]

    def test_read_only(self):
        s = make_samples([const_image(0), const_image(1)], [0, 1])
        for column in (s.images, s.labels):
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_slice_shares_memory_and_index_array_selects(self):
        s = make_samples([const_image(v) for v in range(5)], [0, 1, 0, 1, 0])
        part = s[1:4]
        assert isinstance(part, Samples) and len(part) == 3
        assert np.shares_memory(part.images, s.images)
        assert np.shares_memory(part.labels, s.labels)
        picked = s[[4, 0]]
        assert picked.images[:, 0, 0].tolist() == [4, 0]
        assert picked.labels.tolist() == [0, 0]
        assert s[s.labels == 1].images[:, 0, 0].tolist() == [1, 3]


class TestUavState:
    def test_battery_must_fit_capacity(self):
        with pytest.raises(InvariantViolation):
            make_uav(battery=200.0, battery_max=100.0)


class TestRoundRecord:
    def test_rejects_out_of_range_accuracy(self):
        with pytest.raises(InvariantViolation):
            RoundRecord(round_k=1, selected_ids=(1,), global_accuracy=1.5,
                        global_loss=0.0, round_duration_s=0.0,
                        cohort_energy_j=0.0, dropouts=0, alive_uavs=1)

    def test_rejects_negative_energy(self):
        with pytest.raises(InvariantViolation):
            RoundRecord(round_k=1, selected_ids=(1,), global_accuracy=0.5,
                        global_loss=0.0, round_duration_s=0.0,
                        cohort_energy_j=-1.0, dropouts=0, alive_uavs=1)



def test_every_dataclass_but_dataset_is_frozen():
    # a run holds its changing state itself; Dataset is the one value it rebinds
    frozen = {}
    for info in pkgutil.iter_modules(uavfl.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"uavfl.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                frozen[f"{info.name}.{name}"] = obj.__dataclass_params__.frozen
    assert {"types.UavState", "harness.Scenario", "harness.RunSummary",
            "datagen.UavData"} <= frozen.keys()
    assert [name for name, is_frozen in frozen.items() if not is_frozen] == ["types.Dataset"]
