package seglog

// The external tests (package seglog_test) drive the log through
// internal/faultfs, which imports this package and so cannot be imported by
// its internal tests. These are the internal test helpers they share.
var (
	Formats    = formats
	EachFormat = eachFormat
	OpenT      = openT
	AppendBody = appendBody
	MustAppend = mustAppend
	Collect    = collect
)
