//! Typed series names.
//!
//! Every metric and span name is a [`Name`], built by a `const fn` in
//! its crate's `names` module: a name outside `[a-z0-9_.]+` fails const
//! evaluation, a misspelled const does not resolve, and a bare string
//! literal is not a `Name`, so none of them builds. A series with a
//! per-row segment (a codec, an op, a worker) is a [`Template`], filled
//! once per row by [`Template::fill`].

use parking_lot::Mutex;
use std::collections::BTreeSet;

/// A series name matching `[a-z0-9_.]+`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Name(&'static str);

impl Name {
    /// `name` as a series name. In a `const`, a name outside
    /// `[a-z0-9_.]+` fails the build.
    pub const fn new(name: &'static str) -> Self {
        assert!(
            well_formed(name.as_bytes(), false),
            "series names match [a-z0-9_.]+"
        );
        Self(name)
    }

    /// The name's text.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

/// A series name with named `{placeholder}` segments, each standing for
/// one run of `[a-z0-9_]`: `serve.op.{op}.count`.
#[derive(Clone, Copy, Debug)]
pub struct Template(&'static str);

impl Template {
    /// `template` as a series template. In a `const`, a template outside
    /// `[a-z0-9_.]+` apart from its placeholders, or with a positional
    /// `{}` placeholder, fails the build.
    pub const fn new(template: &'static str) -> Self {
        assert!(
            well_formed(template.as_bytes(), true),
            "series templates match [a-z0-9_.]+ with named {{placeholder}} segments"
        );
        Self(template)
    }

    /// The name with each placeholder replaced by the next of `values`.
    /// Filled names are interned: the same row filled twice allocates once.
    ///
    /// # Panics
    /// When `values` holds other than one `[a-z0-9_]+` value per
    /// placeholder.
    pub fn fill(self, values: &[&str]) -> Name {
        let mut name = String::with_capacity(self.0.len() + 16);
        let mut values = values.iter();
        let mut rest = self.0;
        while let Some(open) = rest.find('{') {
            let close = open + rest[open..].find('}').expect("`new` checked the braces");
            let value = values.next().expect("one value per placeholder");
            assert!(
                well_formed(value.as_bytes(), false) && !value.contains('.'),
                "placeholder value {value:?} is not one [a-z0-9_]+ segment"
            );
            name.push_str(&rest[..open]);
            name.push_str(value);
            rest = &rest[close + 1..];
        }
        assert!(values.next().is_none(), "more values than placeholders");
        name.push_str(rest);
        static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let mut interned = INTERNED.lock();
        if let Some(&known) = interned.get(name.as_str()) {
            return Name(known);
        }
        let name: &'static str = Box::leak(name.into_boxed_str());
        interned.insert(name);
        Name(name)
    }
}

/// Whether `s` is a nonempty run of `[a-z0-9_.]`, or with `template`,
/// also of named `{placeholder}` segments.
const fn well_formed(s: &[u8], template: bool) -> bool {
    let mut open = None;
    let mut i = 0;
    while i < s.len() {
        match s[i] {
            b'a'..=b'z' | b'0'..=b'9' | b'_' => {}
            b'.' if open.is_none() => {}
            b'{' if template && open.is_none() => open = Some(i),
            b'}' => match open {
                Some(at) if i > at + 1 => open = None,
                _ => return false,
            },
            _ => return false,
        }
        i += 1;
    }
    !s.is_empty() && open.is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_templates_are_checked() {
        assert!(well_formed(b"codec.rle.runs", false));
        assert!(!well_formed(b"Codec.RLE", false));
        assert!(!well_formed(b"", false));
        assert!(!well_formed(b"serve.op.{op}.count", false));
        assert!(well_formed(b"serve.op.{op}.count", true));
        assert!(!well_formed(b"serve.op.{}.count", true));
        assert!(!well_formed(b"serve.op.{op.count", true));
        assert!(!well_formed(b"serve.op.{o.p}.count", true));
    }

    #[test]
    fn fill_substitutes_in_order_and_interns() {
        const T: Template = Template::new("compressor.{name}.{direction}.calls");
        let a = T.fill(&["sz_fse", "compress"]);
        assert_eq!(a.as_str(), "compressor.sz_fse.compress.calls");
        assert!(std::ptr::eq(
            a.as_str(),
            T.fill(&["sz_fse", "compress"]).as_str()
        ));
    }

    #[test]
    #[should_panic(expected = "not one [a-z0-9_]+ segment")]
    fn fill_rejects_a_malformed_value() {
        Template::new("stream.codec.{codec}.frames").fill(&["sz-fse"]);
    }
}
