import numpy as np
import pytest

from typedesc import search
from typedesc.errors import TypedescError

# token 0 continues, token 1 is a trap, token 2 is eos
EOS = 2


def step_fn(table):
    """State is the number of tokens emitted so far; rows of `table` are probabilities."""
    def step(prev_ids, states):
        rows = np.log(np.asarray([table[min(s, len(table) - 1)] for s in states]))
        return rows, [s + 1 for s in states]
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

    def test_breaks_an_exact_tie_as_width_one_beam_does(self):
        ties = [0.1, 0.35, 0.1, 0.35, 0.1]   # tokens 1 and 3, for the first two tokens
        stop = [0.05, 0.05, 0.45, 0.05, 0.45]  # then eos and token 4

        def make_step(calls):
            def step(prev_ids, states):
                calls.append(list(prev_ids))
                row = ties if states[0] < 2 else stop
                return np.log(np.asarray([row])), [s + 1 for s in states]
            return step

        greedy_calls, beam_calls = [], []
        ids = search.greedy(make_step(greedy_calls), 0, bos_id=9, eos_id=EOS, max_len=10)
        assert ids == [1, 1]  # the lowest id of each tie, eos before token 4
        assert search.beam(make_step(beam_calls), 0, 9, EOS, 10, width=1) == ids
        # one step call per emitted token, plus the step that emits eos
        assert greedy_calls == beam_calls == [[9], [1], [1]]


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

        def row(prev, state):
            if state == 0:
                return table[0]
            if prev == 0:
                return [0.4, 0.4, 0.2]  # continuing the greedy branch stays weak
            return table[2]

        def step(prev_ids, states):
            rows = [row(prev, state) for prev, state in zip(prev_ids, states)]
            return np.log(np.asarray(rows)), [s + 1 for s in states]

        greedy_ids = search.greedy(step, 0, 0, EOS, 4)
        beam_ids = search.beam(step, 0, 0, EOS, 4, width=2)
        assert greedy_ids[0] == 0
        assert beam_ids == [1]

    def test_one_step_call_per_search_step(self):
        # state: the hypothesis's token ids; token 0 scores best, then 1, 3, 2 (eos), 4
        probs = np.array([0.4, 0.25, 0.1, 0.15, 0.1])
        calls = []

        def step(prev_ids, states):
            calls.append((list(prev_ids), list(states)))
            rows = np.log(np.tile(probs, (len(states), 1)))
            return rows, [st + (int(p),) for st, p in zip(states, prev_ids)]

        search.beam(step, (), 9, EOS, 4, width=3)
        assert len(calls) == 4
        assert calls[0] == ([9], [()])
        for prev_ids, states in calls[1:]:
            assert len(states) == 3
        # every open hypothesis, in beam order: best first, its last token as prev id
        assert calls[1] == ([0, 1, 3], [(9,), (9,), (9,)])
        assert calls[2][0] == [0, 1, 0]
        assert calls[2][1] == [(9, 0), (9, 0), (9, 1)]

    def test_finished_hypotheses_are_not_stepped(self):
        # eos scores best: each step's best candidate finishes and is carried, never
        # stepped; after step 2 both kept hypotheses have finished and no call is made
        probs = np.array([0.3, 0.2, 0.45, 0.05])
        widths = []

        def step(prev_ids, states):
            widths.append(len(states))
            return np.log(np.tile(probs, (len(states), 1))), list(states)

        search.beam(step, 0, 0, EOS, 3, width=2)
        assert widths == [1, 1]

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
