import contextlib
import hashlib
import io
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from greektag.cli import main
from greektag.stylometry import load_counts_csv
from greektag.tags import TagSchema
from greektag.text import load_annotated_corpus

from genmodels import mangled_lines
from test_stylometry import alpha_pattern_counts


@pytest.fixture()
def workdir(tmp_path, fixtures_dir):
    for name in ("toy.schema", "toy.rules", "toy.corpus"):
        shutil.copy(fixtures_dir / name, tmp_path / name)
    shutil.copytree(fixtures_dir / "texts", tmp_path / "texts")
    return tmp_path


def _train(workdir, capsys, extra=()):
    code = main([
        "train", str(workdir / "toy.corpus"),
        "--schema", str(workdir / "toy.schema"),
        "--rules", str(workdir / "toy.rules"),
        "--out", str(workdir / "toy.model"),
        *extra,
    ])
    return code, capsys.readouterr().out


def test_train_writes_model_and_log(workdir, capsys):
    code, log = _train(workdir, capsys)
    assert code == 0
    assert (workdir / "toy.model").exists()
    assert "sequences" in log and "tokens" in log
    assert "lexicon:" in log
    assert "lambdas:" in log
    assert "cv-accuracy:" in log


def test_train_log_reports_lexicon_entry_count(workdir, capsys):
    _, log = _train(workdir, capsys)
    from greektag.model import Model

    model = Model.load(workdir / "toy.model")
    entries = len(model.lexicon.stems) + len(model.lexicon.fullforms)
    assert f"lexicon: {entries} entries" in log


def test_train_is_deterministic(workdir, capsys):
    _train(workdir, capsys)
    first = (workdir / "toy.model").read_bytes()
    (workdir / "toy.model").unlink()
    _train(workdir, capsys)
    assert (workdir / "toy.model").read_bytes() == first


#: sha256 of the model file trained on the toy fixtures
TOY_MODEL_SHA256 = "86f37fcd754919b99be4e9441dad6ecfb2339e428d878a4a09f1f30ed5f42325"


def test_train_model_file_is_golden(workdir, capsys):
    _train(workdir, capsys)
    digest = hashlib.sha256((workdir / "toy.model").read_bytes()).hexdigest()
    assert digest == TOY_MODEL_SHA256


#: sha256 of ``greektag tag`` output on the six fixture texts with the toy
#: model, exact search and then ``--beam 4``
TOY_TAGGED_SHA256 = "380c3770d1d06631d19d7236fc7029c45a00c382b38a82a2f785fd82bd48bccd"


def test_tag_output_is_golden(workdir, capsys):
    _train(workdir, capsys)
    digest = hashlib.sha256()
    for beam in ("0", "4"):
        for path in sorted((workdir / "texts").glob("*.txt")):
            out = workdir / f"{path.stem}.b{beam}.tagged"
            assert main(["tag", str(path), "--model", str(workdir / "toy.model"),
                         "--out", str(out), "--beam", beam]) == 0
            digest.update(f"{path.name} beam {beam}\n".encode())
            digest.update(out.read_bytes())
    assert digest.hexdigest() == TOY_TAGGED_SHA256


def test_train_missing_schema_exits_2(workdir, capsys):
    code = main([
        "train", str(workdir / "toy.corpus"),
        "--schema", str(workdir / "nonexistent.schema"),
        "--out", str(workdir / "m"),
    ])
    assert code == 2
    assert "nonexistent.schema" in capsys.readouterr().err


def test_train_malformed_corpus_exits_1(workdir, capsys):
    bad = workdir / "bad.corpus"
    bad.write_text("word\tnosuchtag\n", encoding="utf-8")
    code = main([
        "train", str(bad),
        "--schema", str(workdir / "toy.schema"),
        "--out", str(workdir / "m"),
    ])
    assert code == 1
    assert "nosuchtag" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["\tnega", "a b\tnega", "λόγος,\tsubs:case=nom,num=sg,gend=masc"],
                         ids=["empty", "space", "trailing-punct"])
def test_train_rejects_surface_no_token_has(workdir, capsys, line):
    bad = workdir / "bad.corpus"
    bad.write_text(f"οὐ\tnega\n{line}\n", encoding="utf-8")
    code = main(["train", str(bad), "--schema", str(workdir / "toy.schema"),
                 "--out", str(workdir / "m")])
    err = capsys.readouterr().err
    assert code == 1
    assert "bad.corpus: line 2: surface" in err
    assert "Traceback" not in err
    assert not (workdir / "m").exists()


def test_train_rejects_bad_rule_pattern(workdir, capsys):
    rules = workdir / "toy.rules"
    lines = rules.read_text(encoding="utf-8").splitlines()
    lines.append("ος|ου\to-noun\tsubs:case=nom,num=sg,gend=masc")
    rules.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["train", str(workdir / "toy.corpus"), "--schema", str(workdir / "toy.schema"),
                 "--rules", str(rules), "--out", str(workdir / "toy.model")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"toy.rules: line {len(lines)}: '|' outside a group" in err
    assert "Traceback" not in err
    assert not (workdir / "toy.model").exists()


def test_train_rejects_class_the_lexicon_cannot_carry(workdir, capsys):
    """A paradigm class named ``w,verb`` would come back from the model's
    lexicon rows as the two classes ``w`` and ``verb``; the rule file is
    rejected at the line of its first such class."""
    rules = workdir / "toy.rules"
    text = rules.read_text(encoding="utf-8")
    no = next(i for i, line in enumerate(text.splitlines(), 1) if "\tw-verb\t" in line)
    rules.write_text(text.replace("\tw-verb\t", "\tw,verb\t"), encoding="utf-8")
    code = main(["train", str(workdir / "toy.corpus"), "--schema", str(workdir / "toy.schema"),
                 "--rules", str(rules), "--out", str(workdir / "toy.model")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"toy.rules: line {no}: paradigm class 'w,verb'" in err
    assert "Traceback" not in err
    assert not (workdir / "toy.model").exists()


def test_train_warns_and_skips_cv_on_one_sequence(workdir, capsys):
    (workdir / "toy.corpus").write_text("ξξξ\tsubs:case=nom,num=sg,gend=masc\n", encoding="utf-8")
    code, log = _train(workdir, capsys)
    assert code == 0
    assert ("warning: no segmentation for 'ξξξ' with tag subs:case=nom,num=sg,gend=masc; "
            "stored as full form\ncv-accuracy: skipped (fewer than 2 sequences)\n") in log


def test_tag_empty_input(workdir, capsys):
    _train(workdir, capsys)
    empty = workdir / "empty.txt"
    empty.write_text("", encoding="utf-8")
    out = workdir / "empty.tagged"
    assert main(["tag", str(empty), "--model", str(workdir / "toy.model"),
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == ""


def test_tag_output_matches_decoder_and_reparses(workdir, capsys):
    _train(workdir, capsys)
    out = workdir / "alpha.tagged"
    assert main(["tag", str(workdir / "texts" / "alpha.txt"),
                 "--model", str(workdir / "toy.model"), "--out", str(out)]) == 0

    schema = TagSchema.load(workdir / "toy.schema")
    tagged = load_annotated_corpus(out, schema)
    assert tagged and all(s.gold_tags is not None for s in tagged)

    from greektag.decode import tag_corpus
    from greektag.model import Model
    from greektag.text import tokenize

    model = Model.load(workdir / "toy.model")
    text = (workdir / "texts" / "alpha.txt").read_text(encoding="utf-8")
    decoded = tag_corpus(model, tokenize(text))
    flat = [(t.surface, tag) for s in tagged for t, tag in zip(s.tokens, s.gold_tags)]
    assert flat == [(t.surface, tag) for s in decoded for t, tag in zip(s.tokens, s.gold_tags)]


def test_tag_bad_model_exits(workdir, capsys):
    bad = workdir / "bad.model"
    bad.write_text("garbage\n", encoding="utf-8")
    inp = workdir / "texts" / "alpha.txt"
    assert main(["tag", str(inp), "--model", str(bad),
                 "--out", str(workdir / "x")]) == 1


def _tag_with_edited_model(workdir, capsys, edit):
    """Tag with the toy model after ``edit(lines)``; (exit code, stderr)."""
    _train(workdir, capsys)
    lines = (workdir / "toy.model").read_text(encoding="utf-8").splitlines()
    edit(lines)
    bad = workdir / "bad.model"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["tag", str(workdir / "texts" / "alpha.txt"), "--model", str(bad),
                 "--out", str(workdir / "x")])
    return code, capsys.readouterr().err


def _rejected(workdir, capsys, edit, message=""):
    """Tagging with the toy model after ``edit(lines)``, which sets
    ``edit.line``, exits 1 with an error that names that line of
    ``bad.model`` and then ``message``, with no traceback; the error."""
    code, err = _tag_with_edited_model(workdir, capsys, edit)
    assert code == 1
    assert f"bad.model: line {edit.line}: {message}" in err
    assert "Traceback" not in err
    return err


def _replacing(prefix, replacement):
    """The edit that makes the first line starting with ``prefix``
    ``replacement``."""
    def edit(lines):
        no = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[no] = replacement
        edit.line = no + 1
    return edit


@pytest.mark.parametrize("replacement", [
    "lambdas nan nan nan",
    "lambdas 0.5 0.5",
    "lambdas 1.5 -0.25 -0.25",
    "lambdas 0.5 0.5 0.5",
    "chain -5 3 3",
    "chain 0 0 0",
    "floor inf",
    "floor 7",
    "floor x",
    "floor ٠.٠٠١",
    "floor 0_0",
    "smoothed 5",
    "smoothed 1 0",
    "smoothed x",
])
def test_tag_rejects_bad_model_header(workdir, capsys, replacement):
    _rejected(workdir, capsys, _replacing(replacement.split()[0] + " ", replacement))


def _insert_after_lambdas(lines):
    lines.insert(2, "bogus 1")
    return 3


def _append_extra_section(lines):
    lines.extend(["[extra]", "junk"])
    return len(lines) - 1


def _unclose_schema(lines):
    no = lines.index("[schema]")
    lines[no] = "[schema"
    return no + 1


@pytest.mark.parametrize("damage, message", [
    (_insert_after_lambdas, "unknown header line bogus"),
    (_append_extra_section, "unknown section [extra]"),
    (_unclose_schema, "content outside any section: '[schema'"),
], ids=["unknown-header", "unknown-section", "unclosed-section"])
def test_tag_rejects_unknown_model_layout(workdir, capsys, damage, message):
    def edit(lines):
        edit.line = damage(lines)

    _rejected(workdir, capsys, edit, message)


@pytest.mark.parametrize("name", ["lambdas", "chain", "floor", "smoothed"])
def test_tag_rejects_missing_model_header_line(workdir, capsys, name):
    def edit(lines):
        lines.remove(next(line for line in lines if line.startswith(name + " ")))

    code, err = _tag_with_edited_model(workdir, capsys, edit)
    assert code == 1
    assert f"bad.model: missing header line {name}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    (3, "2.5"), (3, "-1"), (3, "x"), (3, ""), (0, "nosuch"),
])
def test_tag_rejects_bad_trigram_row(workdir, capsys, field, value):
    def edit(lines):
        no = lines.index("[trigrams]") + 1
        fields = lines[no].split("\t")
        fields[field] = value
        lines[no] = "\t".join(fields)
        edit.line = no + 1

    _rejected(workdir, capsys, edit)


def test_tag_rejects_empty_trigram_section(workdir, capsys):
    """A model file whose [trigrams] section holds no row fails at that
    section's line, not as an untrained model without a path."""
    def edit(lines):
        start = lines.index("[trigrams]")
        del lines[start + 1:lines.index("[lexicon]")]
        edit.line = start + 1

    _rejected(workdir, capsys, edit, "[trigrams] section has no rows")


def test_tag_rejects_empty_feature_list_in_model(workdir, capsys):
    """A trigram row whose scored tag reads ``punct:``, no spelling of
    ``punct``, fails at its line."""
    def edit(lines):
        start = lines.index("[trigrams]") + 1
        no = next(i for i in range(start, len(lines)) if lines[i].split("\t")[2] == "punct")
        fields = lines[no].split("\t")
        fields[2] = "punct:"
        lines[no] = "\t".join(fields)
        edit.line = no + 1

    _rejected(workdir, capsys, edit, "empty feature list in 'punct:'")


@pytest.mark.parametrize("prefix, replacement", [
    ("καί\t", "καί\tfullform\t-\tkonj=nan"),
    ("καί\t", "καί\tfullform\t-\tkonj=inf"),
    ("καί\t", "καί\tfullform\t-\tkonj=-0.5"),
    ("καί\t", "καί\tfullform\t-\tkonj=0.5"),
    ("σας\t", "σας\tw-verb\tpart:case=nom,num=sg,tense=aor,voice=act,gend=masc=nan"),
    ("ει\tsuffix\t", "ει\tsuffix\tw-verb\tverf:pers=3,num=sg,mood=ind,tense=pres,voice=act=1"),
    ("__hapax__\t", "__hapax__\tprior\tw-verb\tprae=1"),
    ("καί\t", "καί\tfullform\t-\tkonj=١"),
    ("σας\t", "σας\tw-verb\tpart:case=nom,num=sg,tense=aor,voice=act,gend=masc=1_0"),
], ids=["nan", "inf", "negative", "sum-0.5", "rule-nan", "suffix-classes", "prior-classes",
        "not-ascii", "rule-underscore"])
def test_tag_rejects_bad_lexicon_row(workdir, capsys, prefix, replacement):
    _rejected(workdir, capsys, _replacing(prefix, replacement))


@settings(deadline=None)
@given(data=st.data())
def test_tag_with_damaged_model_fails_cleanly(toy_model, fixtures_dir, tmp_path_factory, data):
    """``greektag tag`` with a damaged toy model file tags (exit 0) or
    exits 1 or 2 with an ``error:`` line, never with a traceback."""
    base = tmp_path_factory.getbasetemp()
    model = base / "damaged.model"
    lines = data.draw(mangled_lines(toy_model.to_lines()))
    model.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["tag", str(fixtures_dir / "texts" / "alpha.txt"),
                     "--model", str(model), "--out", str(base / "damaged.out")])
    assert code in (0, 1, 2)
    assert err.getvalue().startswith("error: ") == (code != 0)


VERF_3SG = "verf:pers=3,num=sg,mood=ind,tense=pres,voice=act"
PART_NOM = "part:case=nom,num=sg,tense=aor,voice=act,gend=masc"


@pytest.mark.parametrize("prefix, replacement", [
    ("δίκ\t", "δίκ\tstem\ta-noun\tsubs:case=acc,num=sg,gend=fem=0.2 "
               "subs:case=acc,num=sg,gend=fem=0.8"),
    ("ει\tsuffix\t", f"ει\tsuffix\t-\t{VERF_3SG}=0.3 {VERF_3SG}=0.7"),
    ("__hapax__\t", "__hapax__\tprior\t-\tprae=0.3 prae=0.7"),
    ("σας\t", f"σας\tw-verb\t{PART_NOM}=0.5 {PART_NOM}=0.5"),
    ("σας\t", f"σας\tw-verb\t{PART_NOM} {PART_NOM}"),
], ids=["stem", "suffix", "prior", "rule-weighted", "rule-bare"])
def test_tag_rejects_tag_given_twice(workdir, capsys, prefix, replacement):
    assert "given twice" in _rejected(workdir, capsys, _replacing(prefix, replacement))


@pytest.mark.parametrize("prefix, second", [
    ("καί\t", "καί\tfullform\t-\tkonj=1"),
    ("δίκ\t", "δίκ\tstem\to-noun\tsubs:case=nom,num=sg,gend=masc=1"),
    ("ει\tsuffix\t", f"ει\tsuffix\t-\t{VERF_3SG}=1"),
    ("__hapax__\t", "__other__\tprior\t-\tprae=1"),
], ids=["fullform", "stem", "suffix", "prior"])
def test_tag_rejects_entry_given_twice(workdir, capsys, prefix, second):
    def edit(lines):
        no = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines.insert(no + 1, second)
        edit.line = no + 2

    _rejected(workdir, capsys, edit, "second ")


@pytest.mark.parametrize("repeat", ["lambdas", "[schema]", "[rules]", "[trigrams]", "[lexicon]"])
def test_tag_rejects_header_or_section_given_twice(workdir, capsys, repeat):
    """A second header line goes right after the first; a second (empty)
    section goes at the end of the file."""
    def edit(lines):
        if repeat.startswith("["):
            lines.append(repeat)
            edit.line = len(lines)
        else:
            no = next(i for i, line in enumerate(lines) if line.startswith(repeat + " "))
            lines.insert(no + 1, lines[no])
            edit.line = no + 2

    assert "given twice" in _rejected(workdir, capsys, edit)


@pytest.mark.parametrize("row, message", [
    ("nega\tnega\t<s>\t3", "<s> out of place"),
    ("nega\t<s>\tnega\t3", "<s> out of place"),
    ("nega\tnega\tnega\t0", "not a positive integer"),
], ids=["boundary-scored", "boundary-after-tag", "zero-count"])
def test_tag_rejects_trigram_no_sequence_produces(workdir, capsys, row, message):
    def edit(lines):
        no = lines.index("[trigrams]") + 1
        lines.insert(no, row)
        edit.line = no + 1

    assert message in _rejected(workdir, capsys, edit)


@pytest.mark.parametrize("count, code", [
    ("1" * 5000, 1), ("1" * 20, 1), (str(2**63), 1), ("000" + str(2**63 - 1), 0),
], ids=["5000-digits", "20-digits", "2**63", "2**63-1"])
def test_tag_rejects_trigram_count_past_int64(workdir, capsys, count, code):
    """A trigram count that does not fit an int64 exits 1 with the line,
    however many digits it has; the largest int64 loads."""
    def edit(lines):
        no = lines.index("[trigrams]") + 1
        lines.insert(no, "nega\tnega\tnega\t" + count)
        edit.line = no + 1

    got, err = _tag_with_edited_model(workdir, capsys, edit)
    assert got == code, err
    if code:
        assert f"bad.model: line {edit.line}: trigram count more than {2**63 - 1} (int64)" in err
    assert "Traceback" not in err


def test_tag_rejects_trigram_given_twice(workdir, capsys):
    def edit(lines):
        no = lines.index("[trigrams]") + 1
        first = lines[no].rsplit("\t", 1)[0]
        lines.insert(no + 1, first + "\t7")
        edit.line = no + 2

    _rejected(workdir, capsys, edit, "trigram given twice")


def test_stem_and_fullform_may_share_a_form(workdir, capsys):
    def edit(lines):
        no = next(i for i, line in enumerate(lines) if line.startswith("καί\t"))
        lines.insert(no + 1, "καί\tstem\t-\tkonj=1")

    code, err = _tag_with_edited_model(workdir, capsys, edit)
    assert code == 0, err


def test_trellis_bound_exits_1(workdir, capsys, monkeypatch):
    from greektag import decode

    assert _train(workdir, capsys)[0] == 0
    monkeypatch.setattr(decode, "MAX_TRELLIS_CELLS", 1)
    code = main(["tag", str(workdir / "texts" / "alpha.txt"),
                 "--model", str(workdir / "toy.model"), "--out", str(workdir / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: token 2 of the sequence ('παύει') takes the trellis past 1 cells" in err
    assert "Traceback" not in err
    # `greektag train` tags too, in cross-validation
    assert _train(workdir, capsys)[0] == 1


def test_tag_rejects_bad_schema_line_at_its_file_line(workdir, capsys):
    _rejected(workdir, capsys, _replacing("feature case ", "feature case"))


@pytest.mark.parametrize("prefix, replacement", [
    ("feature case ", "feature case nom,,acc"),
    ("category konj", "category konj nosuch"),
], ids=["empty-value", "undeclared-feature"])
def test_bad_schema_declaration_names_its_file_line(workdir, capsys, prefix, replacement):
    # in the [schema] section of a model file
    _rejected(workdir, capsys, _replacing(prefix, replacement))
    # in a schema file
    schema = workdir / "toy.schema"
    lines = schema.read_text(encoding="utf-8").splitlines()
    no = next(i for i, text in enumerate(lines) if text.startswith(prefix))
    lines[no] = replacement
    schema.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["count", str(workdir / "toy.corpus"), "--schema", str(schema),
                 "--out", str(workdir / "c.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {schema}: line {no + 1}: ")
    assert err.count("\n") == 1


def _add_bad_byte(path) -> int:
    """Insert a comment line holding the byte 0xff as line 2 of ``path``;
    returns that line number."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:1] + [b"# \xff\n"] + lines[1:]))
    return 2


@pytest.mark.parametrize("name", ["toy.corpus", "toy.schema", "toy.rules"])
def test_train_rejects_non_utf8_input(workdir, capsys, name):
    line = _add_bad_byte(workdir / name)
    code = main([
        "train", str(workdir / "toy.corpus"),
        "--schema", str(workdir / "toy.schema"),
        "--rules", str(workdir / "toy.rules"),
        "--out", str(workdir / "toy.model"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {workdir / name}: line {line}: not valid UTF-8 (byte 0xff)\n")


@pytest.mark.parametrize("name", ["text", "model", "stdin"])
def test_tag_rejects_non_utf8_input(workdir, capsys, monkeypatch, name):
    _train(workdir, capsys)
    text, model = workdir / "texts" / "alpha.txt", workdir / "toy.model"
    line = _add_bad_byte(model if name == "model" else text)
    if name == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.read_bytes())))
    code = main(["tag", "-" if name == "stdin" else str(text), "--model", str(model),
                 "--out", str(workdir / "x")])
    where = {"text": text, "model": model, "stdin": "<stdin>"}[name]
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {where}: line {line}: not valid UTF-8 (byte 0xff)\n")


def test_count_sums_to_token_count(workdir, capsys):
    _train(workdir, capsys)
    tagged = workdir / "alpha.tagged"
    main(["tag", str(workdir / "texts" / "alpha.txt"),
          "--model", str(workdir / "toy.model"), "--out", str(tagged)])
    counts_path = workdir / "counts.csv"
    assert main(["count", str(tagged), "--schema", str(workdir / "toy.schema"),
                 "--out", str(counts_path)]) == 0
    counts = load_counts_csv(counts_path)
    schema = TagSchema.load(workdir / "toy.schema")
    tokens = sum(len(s) for s in load_annotated_corpus(tagged, schema))
    puncts = sum(
        1 for s in load_annotated_corpus(tagged, schema)
        for t in s.gold_tags if t.category == "punct"
    )
    assert counts[0].total == tokens - puncts


def test_retraining_on_tagger_output(workdir, capsys):
    _train(workdir, capsys)
    tagged = workdir / "alpha.tagged"
    main(["tag", str(workdir / "texts" / "alpha.txt"),
          "--model", str(workdir / "toy.model"), "--out", str(tagged)])
    code = main([
        "train", str(tagged),
        "--schema", str(workdir / "toy.schema"),
        "--rules", str(workdir / "toy.rules"),
        "--out", str(workdir / "retrained.model"),
    ])
    assert code == 0
    assert (workdir / "retrained.model").exists()


def test_count_duplicate_text_id_exits_1(workdir, capsys):
    _train(workdir, capsys)
    tagged = workdir / "alpha.tagged"
    main(["tag", str(workdir / "texts" / "alpha.txt"),
          "--model", str(workdir / "toy.model"), "--out", str(tagged)])
    code = main(["count", str(tagged), str(tagged),
                 "--schema", str(workdir / "toy.schema"),
                 "--out", str(workdir / "c.csv")])
    assert code == 1


def test_count_rejects_undeclared_exclude_category(workdir, capsys):
    """A category the schema does not declare is a usage error, not a
    silent replacement of the default punct exclusion."""
    _train(workdir, capsys)
    tagged = workdir / "alpha.tagged"
    main(["tag", str(workdir / "texts" / "alpha.txt"),
          "--model", str(workdir / "toy.model"), "--out", str(tagged)])
    capsys.readouterr()
    code = main(["count", str(tagged), "--schema", str(workdir / "toy.schema"),
                 "--exclude-category", "konj", "--exclude-category", "nosuch",
                 "--out", str(workdir / "c.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and "konj" not in err
    assert not (workdir / "c.csv").exists()
    assert main(["count", str(tagged), "--schema", str(workdir / "toy.schema"),
                 "--exclude-category", "konj", "--out", str(workdir / "c.csv")]) == 0


def test_count_input_order_does_not_change_cells(workdir, capsys):
    _train(workdir, capsys)
    tagged = []
    for name in ("alpha", "beta"):
        out = workdir / f"{name}.tagged"
        main(["tag", str(workdir / "texts" / f"{name}.txt"),
              "--model", str(workdir / "toy.model"), "--out", str(out)])
        tagged.append(str(out))
    main(["count", *tagged, "--schema", str(workdir / "toy.schema"),
          "--out", str(workdir / "c1.csv")])
    main(["count", *reversed(tagged), "--schema", str(workdir / "toy.schema"),
          "--out", str(workdir / "c2.csv")])
    by_id_1 = {c.text_id: c.counts for c in load_counts_csv(workdir / "c1.csv")}
    by_id_2 = {c.text_id: c.counts for c in load_counts_csv(workdir / "c2.csv")}
    assert by_id_1 == by_id_2


def _write_pattern_csv(path, targets):
    from greektag.stylometry import save_counts_csv

    save_counts_csv(path, alpha_pattern_counts(targets))


def test_chisq_alpha_pattern(workdir, capsys):
    counts_path = workdir / "pattern.csv"
    _write_pattern_csv(counts_path, (7, 6, 7, 7, 6, 10))
    code = main(["chisq", str(counts_path), "--out", str(workdir / "report")])
    assert code == 0
    out = capsys.readouterr().out
    assert "flagged: t5" in out
    csv_text = (workdir / "report.csv").read_text(encoding="utf-8")
    rho_line = [l for l in csv_text.splitlines() if l.startswith("rho,")][0]
    values = [float(v) for v in rho_line.split(",")[1:]]
    expected = (-0.124, -0.868, -0.124, -0.124, -0.868, 2.109)
    assert all(abs(g - w) <= 1e-3 for g, w in zip(values, expected))
    assert (workdir / "report.txt").exists()


def test_chisq_rejects_non_utf8_counts(workdir, capsys):
    counts_path = workdir / "pattern.csv"
    _write_pattern_csv(counts_path, (7, 6, 7, 7, 6, 10))
    line = _add_bad_byte(counts_path)
    assert main(["chisq", str(counts_path), "--out", str(workdir / "report")]) == 1
    assert capsys.readouterr().err == (
        f"error: {counts_path}: line {line}: not valid UTF-8 (byte 0xff)\n")


@pytest.mark.parametrize("edit, line, message", [
    (lambda rows: rows.insert(2, rows[1]), 3, "given twice"),
    (lambda rows: rows.insert(2, "," + rows[1].split(",", 1)[1]), 3, "empty category name"),
    (lambda rows: rows.__setitem__(0, rows[0].replace("t1", "t0")), 1, "given twice"),
], ids=["category", "empty-category", "text"])
def test_chisq_rejects_repeated_counts_rows(workdir, capsys, edit, line, message):
    counts_path = workdir / "pattern.csv"
    _write_pattern_csv(counts_path, (7, 6, 7, 7, 6, 10))
    rows = counts_path.read_text(encoding="utf-8").splitlines()
    edit(rows)
    counts_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["chisq", str(counts_path), "--out", str(workdir / "report")]) == 1
    err = capsys.readouterr().err
    assert f"{counts_path}: line {line}: " in err and message in err
    assert "Traceback" not in err
    assert not (workdir / "report.txt").exists()


@pytest.mark.parametrize("cell", ["1_000", " 7", "+3", "٣"])
def test_chisq_rejects_counts_that_are_not_ascii_digits(workdir, capsys, cell):
    """``int`` reads each of these cells as a count; a counts CSV holds
    only ASCII digits."""
    counts_path = workdir / "pattern.csv"
    _write_pattern_csv(counts_path, (7, 6, 7, 7, 6, 10))
    rows = counts_path.read_text(encoding="utf-8").splitlines()
    name, _, rest = rows[1].split(",", 2)
    rows[1] = f"{name},{cell},{rest}"
    counts_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["chisq", str(counts_path), "--out", str(workdir / "report")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {counts_path}: line 2: "
                   f"count {cell!r} is not a non-negative integer\n")
    assert not (workdir / "report.txt").exists()


@pytest.mark.parametrize("rows, line", [
    (["a,5,99999999999999999999999999,5", "b,5,5,5"], 2),
    (["a,1,2,3", f"b,{2**62},{2**62},{2**62}"], 3),
], ids=["cell", "sum"])
def test_chisq_rejects_counts_past_int64(workdir, capsys, rows, line):
    """A cell, or a sum of cells, that an int64 cannot hold fails with
    its line instead of overflowing or wrapping."""
    counts_path = workdir / "huge.csv"
    counts_path.write_text("\n".join(["category,t0,t1,t2", *rows]) + "\n", encoding="utf-8")
    assert main(["chisq", str(counts_path), "--out", str(workdir / "report")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {counts_path}: line {line}: "
                   f"counts total more than {2**63 - 1} (int64)\n")
    assert not (workdir / "report.txt").exists()


def test_chisq_degenerate_exits_0(workdir, capsys):
    from greektag.stylometry import CategoryCounts, save_counts_csv

    counts_path = workdir / "same.csv"
    save_counts_csv(counts_path,
                    [CategoryCounts(f"t{i}", {"a": 5, "b": 5}) for i in range(3)])
    code = main(["chisq", str(counts_path), "--out", str(workdir / "rep")])
    assert code == 0
    assert "degenerate" in capsys.readouterr().out


def test_chisq_too_few_texts_exits_1(workdir, capsys):
    from greektag.stylometry import CategoryCounts, save_counts_csv

    counts_path = workdir / "two.csv"
    save_counts_csv(counts_path,
                    [CategoryCounts(f"t{i}", {"a": 5, "b": 5}) for i in range(2)])
    assert main(["chisq", str(counts_path), "--out", str(workdir / "rep")]) == 1
    counts_path.write_text("", encoding="utf-8")
    assert main(["chisq", str(counts_path), "--out", str(workdir / "rep")]) == 1
    assert capsys.readouterr().err.endswith("error: need at least 3 texts, got 0\n")


def test_chisq_prints_dropped_categories(workdir, capsys):
    counts_path = workdir / "zero.csv"
    counts_path.write_text("category,t0,t1,t2\na,5,6,7\nb,5,5,5\nc,0,0,0\n", encoding="utf-8")
    assert main(["chisq", str(counts_path), "--out", str(workdir / "rep")]) == 0
    assert "dropped: c\n" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["tag", "in.txt", "--model", "m", "--beam", "-3"],
    ["chisq", "c.csv", "--threshold", "nan"],
    ["chisq", "c.csv", "--threshold", "-1"],
    ["chisq", "c.csv", "--threshold", "inf"],
    ["chisq", "c.csv", "--threshold", "0"],
], ids=["beam-negative", "threshold-nan", "threshold-negative", "threshold-inf",
        "threshold-zero"])
def test_out_of_range_number_is_usage_error(workdir, capsys, args):
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(workdir / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {args[-2]}: {args[-1]!r} is not a" in err
    assert not (workdir / "out").exists()


def test_chisq_threshold_monotonicity(workdir, capsys):
    counts_path = workdir / "pattern.csv"
    _write_pattern_csv(counts_path, (2, 1, 2, 2, 1, 5))
    alphas = []
    for i, threshold in enumerate(["1.0", "3.841", "50.0"]):
        main(["chisq", str(counts_path), "--threshold", threshold,
              "--out", str(workdir / f"r{i}")])
        csv_text = (workdir / f"r{i}.csv").read_text(encoding="utf-8")
        alpha_line = [l for l in csv_text.splitlines() if l.startswith("alpha,")][0]
        alphas.append([int(v) for v in alpha_line.split(",")[1:]])
    for col in range(6):
        assert alphas[0][col] >= alphas[1][col] >= alphas[2][col]
