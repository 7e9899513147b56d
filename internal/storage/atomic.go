// Atomic image commit: checkpoints are streamed to a staging name and
// published to their final name only after the full payload — including
// the CRC-64 trailer — is durably written. A crash mid-write can then
// only tear the staging object; the previously committed image under the
// final name survives the failed overwrite, and restore can never
// observe a partial image. This is the commit protocol CRAFT-style
// fault-tolerant C/R layers use, and the fix for the torn-image window
// of a plain in-place write.

package storage

import (
	"strings"
)

// stagingSuffix marks in-flight objects. Final object names never carry
// it, so a torn staging object can never be mistaken for an image.
const stagingSuffix = ".staging"

// StagingName returns the staging object name for a final object name.
func StagingName(object string) string { return object + stagingSuffix }

// IsStaging reports whether name is a staging object (an in-flight or
// crashed write that was never published).
func IsStaging(name string) bool { return strings.HasSuffix(name, stagingSuffix) }

// unsafeTarget marks a target for legacy in-place commit (no staging, no
// durability barrier). It exists so the contrast experiment can disable
// atomic commit without threading a flag through every mechanism.
type unsafeTarget struct{ Target }

// Unsafe wraps t so captures write images in place under their final
// name with no durability barrier — the pre-atomic-commit behaviour,
// vulnerable to torn and silently truncated images. For experiments and
// regression tests only.
func Unsafe(t Target) Target {
	if t == nil {
		return nil
	}
	if _, ok := t.(unsafeTarget); ok {
		return t
	}
	return unsafeTarget{t}
}

// IsUnsafe reports whether t was wrapped by Unsafe.
func IsUnsafe(t Target) bool {
	_, ok := t.(unsafeTarget)
	return ok
}
