//! Tokenization of attribute values.
//!
//! The paper tokenizes text values into 3-grams ("the values tokenized into
//! 3-grams", §3.2.3; the target classifiers "one might think of a Naive Bayes
//! classifier on tokens or Q-grams", §3.2.2). Both a character q-gram tokenizer
//! and a word tokenizer are provided; the q-gram tokenizer is the default used
//! by the matching and view-inference code.

use std::sync::OnceLock;

/// Which tokenizer a classifier or matcher should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenizerKind {
    /// Character q-grams of the given width (the paper uses 3).
    QGrams(usize),
    /// Whitespace/punctuation-delimited, lower-cased words.
    Words,
}

impl Default for TokenizerKind {
    fn default() -> Self {
        TokenizerKind::QGrams(3)
    }
}

impl TokenizerKind {
    /// Tokenize `text` with this tokenizer.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        match self {
            TokenizerKind::QGrams(q) => qgrams(text, *q),
            TokenizerKind::Words => words(text),
        }
    }
}

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

/// Normalize text before tokenization: lower-case and collapse runs of
/// non-alphanumeric characters into single spaces.
fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for_each_normalized(text, |c| out.push(c));
    out
}

/// Stream the scalars of `normalize(text)` without building it: a separator
/// is held back until the next alphanumeric character, so leading and
/// trailing separators vanish. Returns whether anything was emitted.
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

/// Character q-grams of the normalized text, padded with `q - 1` boundary
/// markers (`#`) on each side so that prefixes and suffixes are represented.
/// Text shorter than `q` yields the padded-window grams it has, never nothing
/// (unless the text normalizes to empty).
pub fn qgrams(text: &str, q: usize) -> Vec<String> {
    let q = q.max(1);
    let norm = normalize(text);
    if norm.is_empty() {
        return Vec::new();
    }
    let pad = "#".repeat(q - 1);
    let padded: Vec<char> = format!("{pad}{norm}{pad}").chars().collect();
    if padded.len() < q {
        return vec![padded.iter().collect()];
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

/// Visit the character 3-grams of `text` — the same grams, in the same
/// order, as `qgrams(text, 3)` — as arrays of three Unicode scalars, without
/// rendering a `String` per gram or materializing the normalized text.
/// This is the path the interned profile builder in `cxm-matching` walks:
/// three scalars pack into one integer key, so a known gram is looked up
/// without any string work. [`qgrams`] remains the convenient collected
/// form (and the only one for other widths).
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

/// Lower-cased word tokens of the text (alphanumeric runs).
pub fn words(text: &str) -> Vec<String> {
    normalize(text).split(' ').filter(|w| !w.is_empty()).map(|w| w.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn word_tokenizer() {
        assert_eq!(words("Heart of Darkness"), vec!["heart", "of", "darkness"]);
        assert_eq!(words("B0006L16N8"), vec!["b0006l16n8"]);
        assert!(words("  --  ").is_empty());
    }

    #[test]
    fn qgram_padding_and_windows() {
        let grams = qgrams("cd", 3);
        // "##cd##" → ##c, #cd, cd#, d##
        assert_eq!(grams, vec!["##c", "#cd", "cd#", "d##"]);
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
            let mut visited = Vec::new();
            for_each_qgram(text, |g| visited.push(g.iter().collect::<String>()));
            assert_eq!(visited, qgrams(text, 3), "text {text:?}");
        }
    }

    #[test]
    fn qgram_counts_scale_with_length() {
        let short = qgrams("abc", 3);
        let long = qgrams("abcdefgh", 3);
        assert!(long.len() > short.len());
        // n characters with q=3 and 2-char padding on both sides → n + 2 grams.
        assert_eq!(long.len(), 8 + 2);
    }

    #[test]
    fn empty_and_punctuation_only_text() {
        assert!(qgrams("", 3).is_empty());
        assert!(qgrams("!!!", 3).is_empty());
    }

    #[test]
    fn unigrams_are_characters() {
        assert_eq!(qgrams("ab", 1), vec!["a", "b"]);
    }

    #[test]
    fn q_zero_is_clamped() {
        assert_eq!(qgrams("ab", 0), vec!["a", "b"]);
    }

    #[test]
    fn tokenizer_kind_dispatch() {
        assert_eq!(TokenizerKind::Words.tokenize("A b"), vec!["a", "b"]);
        assert_eq!(TokenizerKind::QGrams(2).tokenize("ab"), vec!["#a", "ab", "b#"]);
        assert_eq!(TokenizerKind::default(), TokenizerKind::QGrams(3));
    }

    #[test]
    fn similar_strings_share_many_grams() {
        let a: std::collections::BTreeSet<_> = qgrams("hardcover", 3).into_iter().collect();
        let b: std::collections::BTreeSet<_> = qgrams("hardcovers", 3).into_iter().collect();
        let c: std::collections::BTreeSet<_> = qgrams("audio cd", 3).into_iter().collect();
        let ab = a.intersection(&b).count();
        let ac = a.intersection(&c).count();
        assert!(ab > ac, "near-duplicates should overlap more than unrelated strings");
    }
}
