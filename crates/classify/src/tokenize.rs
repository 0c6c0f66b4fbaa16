//! Tokenization of attribute values.
//!
//! The paper tokenizes text values into 3-grams ("the values tokenized into
//! 3-grams", §3.2.3; the target classifiers "one might think of a Naive Bayes
//! classifier on tokens or Q-grams", §3.2.2). [`for_each_qgram`] is the one
//! tokenizer: the Naive Bayes classifier and the interned profile builder in
//! `cxm-matching` both walk its grams.

use std::sync::OnceLock;

/// [`char::is_alphanumeric`], memoized per 256-scalar block of the Basic
/// Multilingual Plane. The std predicate walks Unicode property tables,
/// which costs over 100 ns per call for many non-Latin scripts, and the
/// tokenizers ask it once per character; a block's 256 answers are computed
/// on first use and then cost one bit test.
fn is_alphanumeric(ch: char) -> bool {
    if ch.is_ascii() {
        return ch.is_ascii_alphanumeric();
    }
    let code = u32::from(ch);
    if code > 0xFFFF {
        return ch.is_alphanumeric();
    }
    static BLOCKS: [OnceLock<[u64; 4]>; 256] = [const { OnceLock::new() }; 256];
    let bits = BLOCKS[(code >> 8) as usize].get_or_init(|| {
        let mut bits = [0u64; 4];
        for low in 0..256u32 {
            if char::from_u32((code & !0xFF) | low).is_some_and(char::is_alphanumeric) {
                bits[(low >> 6) as usize] |= 1 << (low & 63);
            }
        }
        bits
    });
    (bits[((code >> 6) & 3) as usize] >> (code & 63)) & 1 == 1
}

/// Stream the normalized text: every alphanumeric character lower-cased, and
/// each run of other characters between two of them collapsed into one
/// space. A separator is held back until the next alphanumeric character, so
/// leading and trailing separators vanish. Returns whether anything was
/// emitted.
fn for_each_normalized(text: &str, mut emit: impl FnMut(char)) -> bool {
    let mut started = false;
    let mut pending_space = false;
    for ch in text.chars() {
        if is_alphanumeric(ch) {
            if pending_space {
                emit(' ');
                pending_space = false;
            }
            for c in ch.to_lowercase() {
                emit(c);
            }
            started = true;
        } else if started {
            pending_space = true;
        }
    }
    started
}

/// Visit the character 3-grams of `text`, in order, as arrays of three
/// Unicode scalars: the windows of the normalized text padded with two
/// boundary markers (`#`) on each side, so that prefixes and suffixes are
/// represented. Text that normalizes to empty has no grams. No `String` is
/// rendered per gram and the normalized text is never materialized; the
/// interned profile builder in `cxm-matching` packs the three scalars into
/// one integer key, so a known gram is looked up without any string work.
pub fn for_each_qgram(text: &str, mut visit: impl FnMut([char; 3])) {
    // Slide a 3-scalar window, primed with the two leading `#` pads, over
    // the normalized stream; the trailing pads follow only a non-empty
    // stream (empty text has no grams).
    let mut window = ['#'; 3];
    let mut push = |c: char| {
        window = [window[1], window[2], c];
        visit(window);
    };
    if for_each_normalized(text, &mut push) {
        push('#');
        push('#');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The normalized text [`for_each_normalized`] streams, collected.
    fn normalize(text: &str) -> String {
        let mut out = String::new();
        for_each_normalized(text, |c| out.push(c));
        out
    }

    /// The grams [`for_each_qgram`] visits, rendered.
    fn grams(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for_each_qgram(text, |g| out.push(g.iter().collect()));
        out
    }

    #[test]
    fn normalization_lowercases_and_strips_punctuation() {
        assert_eq!(normalize("Lance Armstrong's War!"), "lance armstrong s war");
        assert_eq!(normalize("  x&y  "), "x y");
        assert_eq!(normalize("***"), "");
    }

    #[test]
    fn memoized_alphanumeric_matches_std_on_every_scalar() {
        for code in (0..0x3_0000u32).chain([0x10_FFFF, 0xE_0001]) {
            if let Some(ch) = char::from_u32(code) {
                assert_eq!(is_alphanumeric(ch), ch.is_alphanumeric(), "U+{code:04X}");
            }
        }
    }

    /// The 3-grams of `text` the collected way: normalize it whole, pad it
    /// with `##` on each side, and take every 3-scalar window.
    fn collected_qgrams(text: &str) -> Vec<String> {
        let norm = normalize(text);
        if norm.is_empty() {
            return Vec::new();
        }
        let padded: Vec<char> = format!("##{norm}##").chars().collect();
        padded.windows(3).map(|w| w.iter().collect()).collect()
    }

    #[test]
    fn for_each_qgram_matches_collected_qgrams() {
        for text in [
            "cd",
            "Lance Armstrong's War!",
            "a",
            "",
            "***",
            "héllo wörld",
            "x&y",
            "  -- ab --  cd --",
            "İstanbul",
            "𝔘𝔫𝔦 #code",
            "a#b",
        ] {
            assert_eq!(grams(text), collected_qgrams(text), "text {text:?}");
        }
    }

    #[test]
    fn qgram_padding_and_windows() {
        // "##cd##" → ##c, #cd, cd#, d##
        assert_eq!(grams("cd"), vec!["##c", "#cd", "cd#", "d##"]);
    }

    #[test]
    fn qgram_counts_scale_with_length() {
        let short = grams("abc");
        let long = grams("abcdefgh");
        assert!(long.len() > short.len());
        // n characters with 2-char padding on both sides → n + 2 grams.
        assert_eq!(long.len(), 8 + 2);
    }

    #[test]
    fn empty_and_punctuation_only_text() {
        assert!(grams("").is_empty());
        assert!(grams("!!!").is_empty());
    }

    #[test]
    fn similar_strings_share_many_grams() {
        let a: std::collections::BTreeSet<_> = grams("hardcover").into_iter().collect();
        let b: std::collections::BTreeSet<_> = grams("hardcovers").into_iter().collect();
        let c: std::collections::BTreeSet<_> = grams("audio cd").into_iter().collect();
        let ab = a.intersection(&b).count();
        let ac = a.intersection(&c).count();
        assert!(ab > ac, "near-duplicates should overlap more than unrelated strings");
    }
}
