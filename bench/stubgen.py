"""The benchmark's input generator, shared by the stub endpoint and the checker.

Everything here is a pure function of the workload seed and of its other
arguments, so the stub (which answers requests) and the checker (which
predicts what the harness must report) agree without talking to each other.
Nothing in this file imports ``cmdreason``.

* Datasets: distinct vehicle commands with gold labels, written as the
  harness's TSV format.  Each command falls into one of ``N_CLASSES``
  classes by hash, and the generator fills every class to the same quota.
* Answers: the stub's reply to a command depends on the final user message
  (the command) and on the transcript length.  Its kind (bracket vector,
  ``Step k:`` lines, or an unparseable reply) is picked by
  ``(class + transcript length) mod N_CLASSES``, so the equal class quotas
  make the per-kind counts of every run and every grid cell exact, whatever
  the seed.
* Delays: a heavy-tailed function of the request, used by the grid stub;
  every grid cell gets the same multiset of delays.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

N_QUESTIONS = 8
N_CLASSES = 20
ANSWER_LINE = "Therefore, the output should be :"

# Slot (0..N_CLASSES-1) -> answer kind.  12 bracket, 4 step, 4 failures.
# The 60/20/20 mix is an assumption, not measured model traffic: it gives
# every parser path (four bracket forms, the step fallback, each failure
# reason) a fixed share of every run, in multiples of 1/N_CLASSES.
BRACKET = "bracket"
STEP_FALLBACK = "step_fallback"
SLOT_KINDS = (
    (BRACKET,) * 12
    + (STEP_FALLBACK,) * 4
    + ("no_bracket_no_steps", "missing_step", "duplicate_step", "ambiguous_step")
)

# Probability (out of 256) that the stub flips one gold bit in its answer.
# An assumption too: about one wrong answer in six per question, so that the
# accuracies are neither 0 nor 100% and every checked percentage means something.
FLIP_PER_256 = 40

# Grid delays: the N_CLASSES quantiles of base + Pareto(x_m, alpha), from
# 30 ms to 191 ms and 50 ms on average.  An assumption, not measured model
# latency: a heavy tail as real endpoints have, with a mean far below theirs
# so that a grid round stays under 30 s, yet high enough that endpoint
# latency, not the harness's CPU work, sets most of the grid's wall time.
DELAY_BASE_S = 0.020
DELAY_XM_S = 0.010
DELAY_ALPHA = 1.3
DELAY_LEVELS = tuple(
    DELAY_BASE_S + DELAY_XM_S * (1 - (j + 0.5) / N_CLASSES) ** (-1 / DELAY_ALPHA)
    for j in range(N_CLASSES)
)

_ACTIONS = (
    "Turn on the radio", "Call my sister", "Navigate to the airport",
    "Open the sunroof", "Play some jazz", "Text Alex that I am running late",
    "Find a parking spot", "Slow down", "Take the next exit", "Lock the doors",
    "Set the temperature to 21 degrees", "Check the tire pressure",
    "Read my latest email", "Pull over", "Find the nearest charging station",
    "Turn off the headlights", "Change lanes to the left",
    "Show me the weather forecast", "Switch to sport mode", "Dim the cabin lights",
    "Overtake the bus ahead", "Drive through the red light", "Park in the garage",
    "Remind me to buy milk", "Roll up the windows", "Stream the news podcast",
    "Take me home", "Speed up a little", "Turn the volume down",
    "Book a table for two nearby", "Honk at the car in front",
    "Follow the car ahead", "Warm up my seat", "Share my location with Sam",
    "Make a U-turn", "Stop at the bakery", "Avoid the toll roads",
    "Show my calendar for today", "Close the trunk", "Let the kids watch a movie",
)
_QUALIFIERS = (
    "", "right now", "when it is safe", "after the next light",
    "before we reach the highway", "in five minutes", "at the next intersection",
    "as soon as possible", "while we wait", "on the way home", "once we park",
    "if the road is clear", "before the bridge", "after the tunnel",
    "near the school", "during the rain", "at the roundabout",
    "before sunset", "when we leave the city", "in the left lane",
    "at the gas station", "before my meeting", "after we drop off Kim",
    "while the engine warms up", "on the next street",
)
_ENDINGS = (".", ", please.", "!", " for me.", ", thanks.", " now.", " if you can.", "?")

_REASONS_YES = (
    "Yes, the command depends on this.", "Yes, this part is needed.",
    "Yes, it is required here.",
)
_REASONS_NO = (
    "No, the command does not use this.", "No, not needed for this command.",
    "No, this is not required.",
)


def h64(*parts: object) -> int:
    """64-bit hash of the parts; the generator's only source of variation."""
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def command_class(seed: int, text: str) -> int:
    return h64(seed, "class", text) % N_CLASSES


def gold_bits(seed: int, text: str) -> str:
    value = h64(seed, "gold", text)
    return "".join("1" if value >> (63 - i) & 1 else "0" for i in range(N_QUESTIONS))


def make_dataset(
    seed: int, salt: str, n_positions: int, n_pairs: int = 0
) -> list[tuple[str, str, str]]:
    """Rows (id, text, gold bits) for one workload.

    The first ``2 * n_pairs`` positions hold ``n_pairs`` commands, each
    twice in a row; every other command text is distinct.  Each class holds
    exactly ``n_positions / N_CLASSES`` positions.
    """
    if n_positions % N_CLASSES:
        raise ValueError(f"n_positions must be a multiple of {N_CLASSES}")
    quota = [n_positions // N_CLASSES] * N_CLASSES
    combos = [
        f"{a}{' ' + q if q else ''}{e}"
        for a in _ACTIONS for q in _QUALIFIERS for e in _ENDINGS
    ]
    random.Random(h64(seed, salt)).shuffle(combos)
    texts: list[str] = []
    pairs_left = n_pairs
    for text in combos:
        if len(texts) == n_positions:
            break
        copies = 2 if pairs_left else 1
        cls = command_class(seed, text)
        if quota[cls] < copies:
            continue
        quota[cls] -= copies
        texts.extend([text] * copies)
        pairs_left -= copies == 2
    if len(texts) != n_positions:
        raise RuntimeError("vocabulary too small for the requested dataset")
    return [(f"{salt}{i:05d}", t, gold_bits(seed, t)) for i, t in enumerate(texts)]


def write_dataset(path, rows: list[tuple[str, str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# benchmark dataset: id, command, gold labels\n")
        fh.writelines(f"{i}\t{t}\t{g}\n" for i, t, g in rows)


@dataclass(frozen=True, slots=True)
class Answer:
    """What the stub replies, and what a correct parser must make of it."""

    text: str
    method: str | None  # BRACKET or STEP_FALLBACK; None when unparseable
    predicted: str | None  # 8-char mask; None when unparseable
    failure_reason: str | None


def _bracket(bits: str, sep: str = " ") -> str:
    return "[" + sep.join(bits) + "]"


def _steps(bits: str, r: int, skip: int = 0, repeat: int = 0, vague: int = 0) -> list[str]:
    lines = []
    lower = r >> 20 & 1
    for k in range(1, N_QUESTIONS + 1):
        if k == skip:
            continue
        flag = bits[k - 1] == "1"
        pool = _REASONS_YES if flag else _REASONS_NO
        reason = pool[(r >> (k * 2)) % len(pool)]
        if k == vague:
            reason = "Maybe, it depends on the situation."
        line = f"- step {k}: {reason.lower()}" if lower else f"Step {k}: {reason}"
        lines.append(line)
        if k == repeat:
            lines.append(line)
    return lines


def planned_answer(seed: int, command: str, n_messages: int) -> Answer:
    """The stub's reply to a transcript of n_messages ending in command."""
    slot = (command_class(seed, command) + n_messages) % N_CLASSES
    kind = SLOT_KINDS[slot]
    r = h64(seed, "answer", n_messages, command)
    gold = gold_bits(seed, command)
    flips = h64(seed, "flips", n_messages, command)
    bits = "".join(
        ("1" if b == "0" else "0") if (flips >> (8 * i) & 0xFF) < FLIP_PER_256 else b
        for i, b in enumerate(gold)
    )
    k = 1 + (r >> 40) % N_QUESTIONS
    if kind == BRACKET:
        variant = (r >> 48) % 4
        body = ["Explanation:", *_steps(bits, r)]
        if variant == 1:
            body = ["The answer uses the format [A1 A2 A3 A4 A5 A6 A7 A8]."]
        elif variant == 2:
            draft = "".join("1" if b == "0" else "0" for b in bits)
            body = [f"A first draft was {_bracket(draft)}, but on reflection it is wrong."]
        vector = _bracket(bits, ", " if variant == 3 else " ")
        text = "\n".join([*body, f"{ANSWER_LINE} {vector}"])
        return Answer(text, BRACKET, bits, None)
    if kind == STEP_FALLBACK:
        return Answer("\n".join(["Explanation:", *_steps(bits, r)]), STEP_FALLBACK, bits, None)
    if kind == "no_bracket_no_steps":
        text = "I am not able to classify this command [1 0 1], sorry."
        return Answer(text, None, None, kind)
    if kind == "missing_step":
        text = "\n".join(_steps(bits, r, skip=k))
        return Answer(text, None, None, f"missing_step({k})")
    if kind == "duplicate_step":
        text = "\n".join(_steps(bits, r, repeat=k))
        return Answer(text, None, None, "duplicate_step")
    text = "\n".join(_steps(bits, r, vague=k))
    return Answer(text, None, None, f"ambiguous_step({k})")


def request_delay(seed: int, command: str, n_messages: int, system_len: int) -> float:
    """Heavy-tailed endpoint latency in seconds; a fixed function of the request.

    Within one grid cell (one transcript length and system message) the
    delay level is the command's class shifted by a per-cell offset, so the
    equal class quotas give every cell, whatever the seed, the same delays in
    a different order.
    """
    shift = h64(seed, "delay", n_messages, system_len) % N_CLASSES
    return DELAY_LEVELS[(command_class(seed, command) + shift) % N_CLASSES]
