import numpy as np
import pytest

from typedesc import search
from typedesc.errors import TypedescError

# token 0 continues, token 1 is a trap, token 2 is eos
EOS = 2


def step_fn(table):
    """State is the number of tokens emitted so far; rows of `table` are log-probs."""
    def step(prev, state):
        row = np.log(np.asarray(table[min(state, len(table) - 1)]))
        return row, state + 1
    return step


class TestGreedy:
    def test_stops_at_eos(self):
        table = [[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]]
        ids = search.greedy(step_fn(table), 0, bos_id=0, eos_id=EOS, max_len=10)
        assert ids == [0]

    def test_respects_max_len(self):
        table = [[0.9, 0.05, 0.05]]
        ids = search.greedy(step_fn(table), 0, bos_id=0, eos_id=EOS, max_len=3)
        assert ids == [0, 0, 0]


class TestBeam:
    def test_width_one_equals_greedy(self):
        table = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]
        fn = step_fn(table)
        assert search.beam(fn, 0, 0, EOS, 6, 1) == search.greedy(fn, 0, 0, EOS, 6)

    def test_recovers_better_sequence_than_greedy(self):
        # greedy grabs token 0 (p=0.55) then faces a dead end (p=0.05 each choice);
        # the path through token 1 is better overall
        table = [
            [0.55, 0.44, 0.01],   # step 1
            [0.05, 0.05, 0.90],   # after token 0: weak eos-heavy row
            [0.01, 0.01, 0.98],   # after token 1: confident eos
        ]

        def step(prev, state):
            if state == 0:
                row = table[0]
            elif prev == 0:
                row = [0.4, 0.4, 0.2]  # continuing the greedy branch stays weak
            else:
                row = table[2]
            return np.log(np.asarray(row)), state + 1

        greedy_ids = search.greedy(step, 0, 0, EOS, 4)
        beam_ids = search.beam(step, 0, 0, EOS, 4, width=2)
        assert greedy_ids[0] == 0
        assert beam_ids == [1]

    def test_invalid_width(self):
        with pytest.raises(TypedescError):
            search.beam(step_fn([[1.0, 0.0, 0.0]]), 0, 0, EOS, 3, 0)

    def test_width_beyond_the_step_scores_rejected(self):
        table = [[0.5, 0.3, 0.2]]
        assert search.beam(step_fn(table), 0, 0, EOS, 3, 3)
        with pytest.raises(TypedescError, match="beam width 4 exceeds the 3 scores"):
            search.beam(step_fn(table), 0, 0, EOS, 3, 4)


class TestDispatch:
    def test_parse_mode(self):
        assert search.parse_mode("greedy") == ("greedy", 1)
        assert search.parse_mode("beam:4") == ("beam", 4)

    @pytest.mark.parametrize("text", ["beam:", "beam:x", "magic", "beam:0", "beam:-2"])
    def test_parse_mode_rejects(self, text):
        with pytest.raises(TypedescError):
            search.parse_mode(text)

    def test_beam_one_equals_greedy(self):
        fn = step_fn([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
        assert (search.decode(fn, 0, 0, EOS, 6, "beam", 1)
                == search.decode(fn, 0, 0, EOS, 6, "greedy", 1)
                == search.greedy(fn, 0, 0, EOS, 6))

    def test_unknown_mode_rejected(self):
        with pytest.raises(TypedescError, match="magic"):
            search.decode(step_fn([[1.0, 0.0, 0.0]]), 0, 0, EOS, 3, "magic", 1)
