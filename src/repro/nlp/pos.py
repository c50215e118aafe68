"""Rule-based part-of-speech tagger.

Tags :class:`~repro.nlp.tokenizer.Token` lists in place using the
closed-class lexicon (:mod:`repro.nlp.lexicon`), morphological suffix
heuristics, and two context repairs (verb after "to"/modal; noun after a
determiner).  It is a deliberately simple stand-in for the Stanford
tagger used by NaLIR [30-32] — the parse analysis downstream only needs
coarse distinctions (noun vs verb vs wh-word vs comparative).
"""

from __future__ import annotations

from typing import List

from . import lexicon
from .tokenizer import Token, tokenize


def tag(tokens: List[Token]) -> List[Token]:
    """Assign ``token.pos`` for every token; returns the same list."""
    for token in tokens:
        token.pos = _lexical_tag(token)
    _contextual_repair(tokens)
    return tokens


def tag_text(text: str) -> List[Token]:
    """Tokenize and tag in one step."""
    return tag(tokenize(text))


def _lexical_tag(token: Token) -> str:
    if token.kind == "number":
        return "CD"
    if token.kind == "date":
        return "CD"
    if token.kind == "quoted":
        return "NNP"  # quoted spans behave like proper nouns (values)
    if token.kind == "punct":
        return "SYM"
    w = token.norm
    if w in lexicon.DETERMINERS:
        return "DT"
    if w in lexicon.PREPOSITIONS:
        return "IN"
    if w in lexicon.CONJUNCTIONS:
        return "CC"
    if w in lexicon.PRONOUNS:
        return "PRP"
    if w in lexicon.WH_PRONOUNS:
        return "WP"
    if w in lexicon.WH_ADVERBS:
        return "WRB"
    if w in lexicon.MODALS:
        return "MD"
    if w in lexicon.AUX_VERBS:
        return "VB"
    if w in lexicon.SUPERLATIVES:
        return "JJS"
    if w in lexicon.COMPARATIVES:
        return "JJR"
    if w in lexicon.NEGATIONS or w in lexicon.ADVERBS:
        return "RB"
    if w in lexicon.COMMON_VERBS:
        return "VB"
    if w in lexicon.ADJECTIVES:
        return "JJ"
    return _suffix_tag(w)


def _suffix_tag(word: str) -> str:
    if word.endswith("ly") and len(word) > 4:
        return "RB"
    if word.endswith(("est",)) and len(word) > 4:
        return "JJS"
    if word.endswith(("er",)) and len(word) > 4:
        # 'manager', 'customer' are nouns; treat -er as noun unless the
        # stem alone is a known adjective base (cheap+er).
        stem = word[:-2]
        if stem in lexicon.ADJECTIVES or stem + "e" in lexicon.ADJECTIVES:
            return "JJR"
        return "NN"
    if word.endswith(("ing",)) and len(word) > 5:
        return "VBG"
    if word.endswith(("ed",)) and len(word) > 4:
        return "VBD"
    if word.endswith(("ous", "ful", "ive", "able", "ible", "al", "ic")) and len(word) > 4:
        return "JJ"
    if word.endswith("s") and not word.endswith(("ss", "us", "is")) and len(word) > 3:
        return "NNS"
    return "NN"


def _contextual_repair(tokens: List[Token]) -> None:
    for i, token in enumerate(tokens):
        prev_token = tokens[i - 1] if i > 0 else None
        # after a determiner, a VB/VBD-looking word is usually a noun:
        # "the *order*", "the *visit*"
        if prev_token is not None and prev_token.pos == "DT" and token.pos in ("VB", "VBD"):
            token.pos = "NN"
        # after "to" or a modal, prefer verb: "wants to *order*"
        if (
            prev_token is not None
            and (prev_token.norm == "to" or prev_token.pos == "MD")
            and token.pos in ("NN",)
            and token.norm in lexicon.COMMON_VERBS
        ):
            token.pos = "VB"
