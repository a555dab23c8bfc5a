//! The transcript of a small corpus, pinned: a change to any reply byte —
//! a value, a step count, a diagnostic, a header token — moves the digest.

use cqa_testkit::transcript;
use cqa_testkit::wire::fnv64;

#[test]
fn the_transcript_of_a_small_corpus_is_pinned() {
    let t = transcript(2, 60);
    for needle in [
        "reason=nonlinear",
        "reason=volume-budget",
        "\nERR budget ",
        "\nERR lint ",
        "\nOK BATCH n=12 errors=3\n",
        "\n# restart\n",
        "\nOK PERSIST main statements=4\n",
        "nesting deeper than 128 levels",
    ] {
        assert!(t.contains(needle), "the corpus lost `{needle}`");
    }
    let digest = fnv64(t.bytes());
    assert_eq!(digest, 0xff86_8ca3_9bf0_b2e8, "{digest:#018x}");
}
